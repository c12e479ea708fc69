// Tuning-as-a-service recipe: an embedded TuningService driven through its
// ask/tell surface, then the same session replayed over loopback TCP.
//
//   $ ./tuning_service
//
// The service front end is the multi-tenant face of the concurrent runtime:
// open() admits a session over a catalog kernel (shared space, shared
// evaluation cache, admission limits), suggest() hands out the next
// configuration to measure, report() feeds the measurement back, close()
// returns the final TuningRun summary.  Because the ask/tell stepper is
// bit-identical to the closed run_session loop, a remote tuner — here a
// ServiceClient talking length-prefixed JSON to a ServiceServer on an
// ephemeral loopback port — produces exactly the run an in-process call
// would.  The embedded and the wire sessions below print the same best.
#include <iostream>

#include "tunespace/tuner/server.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/service_client.hpp"

using namespace tunespace;

namespace {

tuner::OpenSessionRequest gemm_request() {
  tuner::OpenSessionRequest request;
  request.tenant = "example";
  request.kernel = "gemm";  // from the service catalog (see service.hpp)
  request.optimizer = "simulated-annealing";
  request.seed = 5;
  request.budget_seconds = 60.0;
  // Pin the construction charge so the run is reproducible run-to-run.
  request.fixed_construction_seconds = 0.5;
  return request;
}

/// Answer every suggestion with the kernel's performance model — the role a
/// real deployment fills by launching the configuration on the GPU.
template <typename Api>
tuner::RunSummary drive(Api& api, std::uint64_t session_id,
                        const std::vector<std::string>& names) {
  const auto* kernel = tuner::find_service_kernel("gemm");
  while (true) {
    const auto ask = api.suggest({session_id});
    if (ask.finished) break;
    csp::Config config;
    for (const auto& entry : ask.config) config.push_back(entry.value);
    api.report({session_id, kernel->model->gflops(names, config), -1.0});
  }
  return api.close({session_id}).run;
}

/// ServiceClient exposes per-id convenience calls; adapt to the request
/// structs so drive() works on both transports.
struct WireApi {
  tuner::ServiceClient& client;
  tuner::SuggestResponse suggest(const tuner::SuggestRequest& r) {
    return client.suggest(r.session_id);
  }
  tuner::ReportResponse report(const tuner::ReportRequest& r) {
    return client.report(r);
  }
  tuner::CloseSessionResponse close(const tuner::CloseSessionRequest& r) {
    return client.close_session(r.session_id);
  }
};

}  // namespace

int main() {
  // 1. Embedded: the service as a library, zero serialization.
  tuner::TuningService service;
  const auto opened = service.open(gemm_request());
  std::cout << "embedded session " << opened.session_id << " over "
            << opened.info.kernel << " (" << opened.info.space_rows
            << " rows)\n";
  const auto embedded = drive(service, opened.session_id,
                              opened.info.param_names);
  std::cout << "  best " << embedded.best_gflops << " GFLOP/s in "
            << embedded.evaluations << " evaluations\n";

  // 2. Remote: the same session over loopback TCP.  A fresh service, so the
  // shared cache cannot leak results between the two runs.
  tuner::TuningService remote_service;
  tuner::ServiceServerOptions server_options;
  server_options.port = 0;  // ephemeral
  tuner::ServiceServer server(remote_service, server_options);
  server.start();

  tuner::ServiceClientOptions client_options;
  client_options.port = server.port();
  tuner::ServiceClient client(client_options);
  const auto remote_opened = client.open(gemm_request());
  std::cout << "wire session " << remote_opened.session_id << " on port "
            << server.port() << "\n";
  WireApi api{client};
  const auto remote = drive(api, remote_opened.session_id,
                            remote_opened.info.param_names);
  std::cout << "  best " << remote.best_gflops << " GFLOP/s in "
            << remote.evaluations << " evaluations\n";
  server.stop();

  std::cout << (embedded == remote ? "transports agree bit-for-bit\n"
                                   : "DIVERGED\n");
  return embedded == remote ? 0 : 1;
}
