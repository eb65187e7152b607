// The hlsw synthesis service: one process hosting the synthesis, DSE,
// cosim, verify and profile pipelines behind a socket API, so many clients
// (CI shards, sweep scripts, notebook sessions) share a single warm
// SynthesisCache and vsim design cache instead of each paying cold-start.
//
// Request/response envelopes (one JSON object per frame, see proto.h):
//   request   {"op": "...", "id": <int>, "tenant": "...", ...params}
//   response  {"id": <echoed>, "ok": true,  "result": {...}}
//          or {"id": <echoed>, "ok": false, "error": {"code", "what",
//              "where"}}
// `id` is chosen by the client and echoed verbatim, so clients may pipeline
// requests and match responses out of order. `tenant` names the fairness
// bucket (defaults to "default"); see scheduler.h.
//
// Ops: ping, synth, dse, cosim, verify, profile, metrics, trace,
// flush_caches, shutdown. docs/SERVER.md specifies each op's parameters
// and result schema.
//
// Error codes a client can receive:
//   truncated_frame, oversized_frame   framing broke; connection closes
//   bad_json, not_object, bad_params,  payload problems; connection stays
//   unknown_op, unknown_design           up, only that request fails
//   busy                               tenant queue full — resubmit later
//   forbidden                          op disabled by server options
//   shutting_down                      daemon is draining
//   job_failed                         the job itself threw worker-side;
//                                        `what` carries the exception text,
//                                        `where` the failing stage
//
// Execution model: one reader thread per connection parses and validates
// frames; jobs are queued per tenant in a FairScheduler and executed by a
// util::ThreadPool of workers. A worker exception fails exactly that job
// (structured job_failed response) — the daemon never dies with a tenant's
// design. DSE jobs get a dedicated coordinator thread (bounded by
// max_dse_coordinators) which shards the sweep into per-candidate synthesis
// units via DseOptions::executor and schedules them through the SAME
// fair queues — a giant sweep competes unit-by-unit with other tenants'
// jobs instead of monopolizing a worker for its whole duration.
//
// Results are bit-identical to direct library calls: handlers invoke the
// same run_synthesis/explore/cosim_sweep/verify_emitted/profile_run entry
// points with server-owned threading disabled or externally provided, and
// every one of those is deterministic by contract
// (tests/serve/equivalence_test.cpp holds the daemon to this).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hls/ir.h"
#include "hls/synth_cache.h"
#include "obs/json.h"
#include "serve/proto.h"
#include "serve/scheduler.h"
#include "util/thread_pool.h"

namespace hlsw::serve {

struct ServerOptions {
  // Unix-domain listener path ("" = none). The default transport.
  std::string unix_path;
  // TCP listener port: -1 = none, 0 = ephemeral (read back via
  // tcp_port()), otherwise the given port.
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  // Worker threads executing jobs. 0 = hardware concurrency.
  unsigned workers = 0;
  SchedulerOptions sched;
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Concurrent DSE coordinator threads; further dse requests get `busy`.
  int max_dse_coordinators = 4;
  // Whether the `shutdown` op is honored (daemons exposed beyond a test
  // harness usually want SIGTERM handling instead).
  bool allow_shutdown_op = false;
  // Turns on obs tracing/metrics instrumentation (obs::set_enabled) for
  // the whole process, so per-job spans land in the trace.
  bool enable_obs = false;
  // When non-empty, stop() flushes the Chrome trace buffer here.
  std::string trace_path;
};

class Server {
 public:
  // Thrown by request handlers for job problems discovered worker-side;
  // execute_job turns it into the structured error response.
  struct JobError {
    std::string code, what, where;
  };

  explicit Server(ServerOptions opts = {});
  ~Server();  // calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds listeners and starts worker + accept threads. False (with *err)
  // if no listener was configured or a bind failed.
  bool start(std::string* err = nullptr);

  // Blocks until request_stop() — typically triggered by the `shutdown`
  // op or a signal handler. Does not itself stop the server.
  void wait();
  void request_stop();

  // Graceful drain: stop accepting connections and jobs, finish every
  // accepted job, write every response, join all threads, flush traces.
  // Idempotent.
  void stop();

  // Actual TCP port after start() (useful with tcp_port = 0).
  int tcp_port() const { return bound_tcp_port_; }
  const std::string& unix_path() const { return opts_.unix_path; }

  // Registers a named design. The factory runs WORKER-side: a throwing
  // factory fails the requesting job with job_failed, not the daemon.
  // "qam_decoder" (the paper's Figure 4 design) is pre-registered.
  void register_design(const std::string& name,
                       std::function<hls::Function()> factory);

  // The process-wide synthesis memoization shared by synth and dse jobs
  // across every tenant (exposed for tests and pre-warming).
  const std::shared_ptr<hls::SynthesisCache>& synth_cache() const {
    return synth_cache_;
  }

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mu;  // serializes response frames from worker threads
    ~Connection();
  };

  void accept_loop(int listen_fd);
  void conn_loop(std::shared_ptr<Connection> c);
  void worker_loop();
  // Parses/validates one frame on the connection thread and either answers
  // immediately (control ops, payload errors) or enqueues a job.
  void handle_frame(const std::shared_ptr<Connection>& c,
                    const std::string& payload);
  // Runs one job end to end on a worker (or DSE coordinator) thread and
  // writes the response. Never throws.
  void execute_job(const std::shared_ptr<Connection>& c, obs::Json req,
                   const std::string& op, const std::string& tenant,
                   long long id);
  // Dispatches to the per-op handler; throws JobError / std::exception.
  obs::Json run_job(const obs::Json& req, const std::string& op,
                    const std::string& tenant);

  obs::Json handle_synth(const obs::Json& req);
  obs::Json handle_dse(const obs::Json& req, const std::string& tenant);
  obs::Json handle_cosim(const obs::Json& req);
  obs::Json handle_verify(const obs::Json& req);
  obs::Json handle_profile(const obs::Json& req);
  obs::Json metrics_json() const;

  hls::Function resolve_design(const obs::Json& req) const;

  void send_json(const std::shared_ptr<Connection>& c, const obs::Json& doc);

  ServerOptions opts_;
  std::shared_ptr<hls::SynthesisCache> synth_cache_;
  FairScheduler sched_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;

  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::thread> accept_threads_;

  mutable std::mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> conn_threads_;

  // One DSE coordinator thread; `done` is set once its job has returned,
  // so the next dse request can join it instead of holding it until stop().
  struct Coordinator {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  // Joins every coordinator whose job has returned. Caller holds coord_mu_.
  void join_finished_coordinators();

  mutable std::mutex coord_mu_;
  std::vector<Coordinator> coordinators_;
  std::atomic<int> active_coordinators_{0};

  mutable std::mutex design_mu_;
  std::map<std::string, std::function<hls::Function()>> designs_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  bool started_ = false;

  std::chrono::steady_clock::time_point start_time_;

  std::atomic<long long> jobs_accepted_{0};
  std::atomic<long long> jobs_ok_{0};
  std::atomic<long long> jobs_failed_{0};
  std::atomic<long long> busy_rejections_{0};
  std::atomic<long long> protocol_errors_{0};
};

// Envelope builders (shared with tests so expectations match by
// construction).
obs::Json make_ok(long long id, obs::Json result);
obs::Json make_error(long long id, const std::string& code,
                     const std::string& what, const std::string& where);

}  // namespace hlsw::serve
