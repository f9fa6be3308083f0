// levnet_perf — the repeatable wall-time benchmark of levnet, end to end
// and per layer. One process runs one workload, so its peak RSS belongs to
// that workload:
//
//   levnet_perf --workload star-erew --seed 1 --seconds 10 [--trace DIR]
//
// It times the library's public entry points from outside
// (Machine::build, make_program, Machine::run_seeded, routing::run_workload,
// Router::next_hop, PolynomialHash::evaluate_batch, ReferencePram::run and
// the serve:: decode / Farm::resolve / encode calls) and drives the real
// levnet_serve binary. Every trial and request is checked; the last line of
// stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
// Without --trace the metrics are the end-to-end set; with --trace they
// are the per-layer set, and DIR receives the run's spans as a Chrome
// trace. perf/run.py builds this binary and is the command to use; the
// metric catalogue and the reasons behind each workload are in README.md.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/stopwatch.hpp"
#include "analysis/trials.hpp"
#include "hashing/poly_hash.hpp"
#include "machine/machine.hpp"
#include "machine/registry.hpp"
#include "machine/run_io.hpp"
#include "obs/recorder.hpp"
#include "pram/reference.hpp"
#include "routing/driver.hpp"
#include "serve/farm.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "sim/workload.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

extern char** environ;

namespace {

using namespace levnet;
using analysis::Stopwatch;

// ---------------------------------------------------------------- workloads

struct EmuWorkload {
  std::string_view name;
  const char* spec;
  const char* program;
  std::uint32_t steps;
};

constexpr EmuWorkload kEmuWorkloads[] = {
    {"star-erew", "star:8/two-phase/erew/fifo", "permutation", 2},
    {"star-erew-t4", "star:8/two-phase/erew/fifo/threads:4", "permutation", 2},
    {"star-crcw-hist", "star:8/two-phase/crcw-combining/fifo", "histogram", 2},
    {"mesh-bounded", "mesh:128/three-stage/erew/furthest-first/buffer=8",
     "permutation", 2},
};

constexpr std::string_view kServeWorkload = "serve-mix";

struct Pair {
  const char* spec;
  const char* program;
};

// serve-mix, most requested first. Ten distinct fault-free specs overflow
// levnet_serve's default 8-entry farm, so the stream has hits, misses and
// evictions; 256-1024 processors keep requests at 1-100 ms, where the
// serving overhead is visible next to the emulation.
constexpr Pair kZipfPairs[] = {
    {"star:6/two-phase/erew/fifo", "permutation"},
    {"hypercube:9/valiant/erew/fifo/budget=3", "prefix-sum"},
    {"star:6/two-phase/crcw-combining/fifo", "histogram"},
    {"mesh:16/three-stage/erew/furthest-first", "permutation"},
    {"shuffle:9/two-phase/crew/fifo", "random"},
    {"butterfly:8/two-phase/crcw-combining/fifo", "hotspot-write"},
    {"torus:16/greedy/crcw/fifo", "max-crcw"},
    {"star:6/two-phase/erew/fifo", "compaction"},
    {"nshuffle:4/two-phase/erew/fifo", "odd-even-sort"},
    {"mesh:32/xy/crcw-combining/fifo", "hotspot-read"},
    {"hypercube:9/valiant/erew/fifo/budget=3", "broadcast"},
    {"ccc:7/two-phase/crew/fifo", "list-ranking"},
};
// The uncacheable tenth: each request builds a private faulted machine.
constexpr Pair kFaultedPairs[] = {
    {"star:6/two-phase/erew/fifo/faults:links=0.05", "permutation"},
    {"mesh:16/three-stage/erew/furthest-first/faults:modules=0.05",
     "permutation"},
};
constexpr double kZipfExponent = 1.1;
constexpr double kFaultedShare = 0.1;
constexpr std::size_t kBlock = 50;      // requests per stratified block
constexpr std::size_t kWindow = 4;      // closed loop: requests outstanding
constexpr char kServeWorkers[] = "4";   // levnet_serve --workers

constexpr std::size_t kSetupBuilds = 21;  // emu setup_s, plus one per trial
constexpr std::size_t kServeSetups = 9;   // serve setup_s: median of these
constexpr std::size_t kMinTrials = 5;
constexpr std::size_t kTraceTrials = 3;   // >= 2, so the farm sees a hit
constexpr std::size_t kRouteRepeats = 3;
constexpr double kMinLayerSeconds = 0.05;  // walk/hash loops run this long

// --------------------------------------------------------------- statistics

double median(std::vector<double> values) {
  LEVNET_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it.
double nearest_rank(std::vector<double> values, double q) {
  LEVNET_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

// -------------------------------------------------------------------- spans

/// In-memory spans, one per call into a layer, written once at exit as a
/// Chrome trace. A child names its parent, and every span of one trial or
/// request carries that trial's or request's id.
class Tracer {
 public:
  int open(const char* name, const std::string& id, int parent) {
    spans_.push_back(Span{name, id, parent, clock_.seconds(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) {
    spans_[static_cast<std::size_t>(span)].end = clock_.seconds();
  }

  void write_chrome(std::ostream& os) const {
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
         << s.start * 1e6 << ", \"dur\": " << (s.end - s.start) * 1e6
         << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
         << ", \"id\": \"" << s.id << "\"}}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  }

 private:
  struct Span {
    const char* name;
    std::string id;
    int parent;
    double start;
    double end;
  };
  Stopwatch clock_;
  std::deque<Span> spans_;  // grows without copying, so open() stays cheap
};

/// Times one call into a layer; with a tracer attached it is also a span.
class Section {
 public:
  Section(Tracer* tracer, const char* name, const std::string& id,
          int parent = -1)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->open(name, id, parent) : -1) {}

  [[nodiscard]] int span() const { return span_; }
  [[nodiscard]] double elapsed() const { return watch_.seconds(); }
  double stop() {
    const double seconds = watch_.seconds();
    if (tracer_ != nullptr) tracer_->close(span_);
    return seconds;
  }

 private:
  Tracer* tracer_;
  int span_;
  Stopwatch watch_;
};

// ------------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "levnet_perf: FAILED " << what << "\n";
    }
  }
  void add(std::string name, double value, const char* unit) {
    LEVNET_CHECK_MSG(std::isfinite(value), name + " is not finite");
    metrics.push_back(Metric{std::move(name), value, unit});
  }
  [[nodiscard]] bool correct() const { return attempted > 0 && failed == 0; }

  void print(std::ostream& os) const {
    std::ostringstream line;
    line.precision(17);
    line << "{\"correct\": " << (correct() ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      line << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    line << "}}";
    os << line.str() << std::endl;
  }
};

double peak_rss_mb(const rusage& usage) {
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ correctness

/// The trial's gate: the run completed, the program's own postcondition
/// holds, and the final memory equals ReferencePram's on the same program.
bool check_against_reference(pram::PramProgram& program,
                             const pram::SharedMemory& memory,
                             const emulation::EmulationReport& report,
                             double& reference_s, Tracer* tracer,
                             const std::string& id, int parent) {
  Section check(tracer, "check", id, parent);
  bool ok = report.complete && program.validate(memory);
  program.reset();
  pram::SharedMemory expected;
  Section reference(tracer, "pram.reference", id, check.span());
  (void)pram::ReferencePram::for_program(program).run(program, expected);
  reference_s = reference.stop();
  ok = ok && memory == expected;
  check.stop();
  return ok;
}

// ---------------------------------------------------- direct trial (emu)

struct Trial {
  double program_s = 0.0;
  double run_s = 0.0;
  emulation::EmulationReport report;
  bool ok = false;
};

/// One emulated trial through the library API: make_program + run_seeded.
Trial run_trial(const machine::Machine& m, const EmuWorkload& w,
                std::uint64_t seed) {
  Trial t;
  std::string error;
  Stopwatch watch;
  const std::unique_ptr<pram::PramProgram> program =
      machine::make_program(w.program, m.processors(), seed, w.steps, error);
  t.program_s = watch.seconds();
  LEVNET_CHECK_MSG(program != nullptr, error);
  pram::SharedMemory memory;
  watch.reset();
  t.report = m.run_seeded(seed, *program, memory);
  t.run_s = watch.seconds();
  double reference_s = 0.0;
  t.ok = check_against_reference(*program, memory, t.report, reference_s,
                                 nullptr, "", -1);
  return t;
}

// ------------------------------------------------- in-process serve path

struct Served {
  std::string response;
  emulation::EmulationReport report;
  std::uint32_t processors = 0;
  serve::CacheOutcome cache = serve::CacheOutcome::kMiss;
  double decode_s = 0.0;
  double resolve_s = 0.0;
  double program_s = 0.0;
  double run_s = 0.0;
  double encode_s = 0.0;
  double reference_s = 0.0;
  std::uint64_t transmissions = 0;
  bool ok = false;

  [[nodiscard]] double service_s() const {
    return decode_s + resolve_s + program_s + run_s + encode_s;
  }
};

/// One request line through the serve layers in process, the way a
/// levnet_serve session runs it: decode_request -> Farm::resolve ->
/// make_program -> run_seeded (run, for an uncacheable faulted machine)
/// -> write_ok_response. `record` attaches an obs::Recorder for exact
/// counts; the recorder also fills the report's latency quantiles, so only
/// unrecorded responses are byte-comparable to the server's.
Served serve_line(serve::Farm& farm, const std::string& line,
                  std::uint64_t seq, const char* root, const std::string& id,
                  Tracer* tracer, bool record) {
  Served s;
  // Scratch the layers write into, made before the root span opens so the
  // span's uncovered time is only the harness's own bookkeeping.
  serve::ServeRequest request;
  std::string error;
  obs::Recorder recorder;
  pram::SharedMemory memory;
  std::ostringstream os;
  Section whole(tracer, root, id);
  Section decode(tracer, "serve.decode", id, whole.span());
  const bool decoded = serve::decode_request(
      line, seq, serve::SessionConfig{}.default_steps, request, error);
  s.decode_s = decode.stop();
  if (!decoded) {
    std::cerr << "levnet_perf: bad request line: " << error << "\n";
    whole.stop();
    return s;
  }
  if (request.spec.faults.any()) request.spec.seed = request.seed;

  Section resolve(tracer, "serve.resolve", id, whole.span());
  const serve::Farm::Resolved resolved = farm.resolve(request.spec);
  s.resolve_s = resolve.stop();
  s.cache = resolved.outcome;
  machine::Machine* const owned = resolved.owned.get();
  const machine::Machine& m = owned != nullptr ? *owned : *resolved.shared;
  s.processors = m.processors();

  Section make(tracer, "machine.make_program", id, whole.span());
  const std::unique_ptr<pram::PramProgram> program = machine::make_program(
      request.program, m.processors(), request.seed, request.steps, error);
  s.program_s = make.stop();
  LEVNET_CHECK_MSG(program != nullptr, error);

  obs::Recorder* const rec = record ? &recorder : nullptr;
  Section run(tracer, "emulation.run", id, whole.span());
  s.report = owned != nullptr
                 ? owned->run(*program, memory, rec)
                 : m.run_seeded(request.seed, *program, memory, rec);
  s.run_s = run.stop();
  s.transmissions = recorder.counter(obs::Probe::kTransmissions);

  Section encode(tracer, "serve.encode", id, whole.span());
  serve::write_ok_response(os, request, resolved.outcome, s.report, nullptr);
  s.response = os.str();
  s.encode_s = encode.stop();

  s.ok = check_against_reference(*program, memory, s.report, s.reference_s,
                                 tracer, id, whole.span());
  whole.stop();
  return s;
}

// -------------------------------------------------------- levnet_serve

/// levnet_serve as a child process: requests go to its stdin, responses
/// come back on its stdout. The destructor reaps a child that finish()
/// did not.
class ServerProcess {
 public:
  ServerProcess() {
    int to_server[2];
    int from_server[2];
    LEVNET_CHECK(::pipe2(to_server, O_CLOEXEC) == 0);
    LEVNET_CHECK(::pipe2(from_server, O_CLOEXEC) == 0);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_server[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, from_server[1], STDOUT_FILENO);
    std::string path = LEVNET_SERVE_PATH;
    std::string flag = "--workers";
    std::string workers = kServeWorkers;
    char* argv[] = {path.data(), flag.data(), workers.data(), nullptr};
    const int rc =
        posix_spawn(&pid_, path.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(to_server[0]);
    ::close(from_server[1]);
    to_server_ = to_server[1];
    from_server_ = from_server[0];
    LEVNET_CHECK_MSG(rc == 0, "cannot start " + path);
  }

  ~ServerProcess() {
    if (pid_ <= 0) return;
    ::close(to_server_);
    ::close(from_server_);
    ::kill(pid_, SIGTERM);
    ::waitpid(pid_, nullptr, 0);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  void send(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t done = 0;
    while (done < framed.size()) {
      const ssize_t n =
          ::write(to_server_, framed.data() + done, framed.size() - done);
      if (n < 0 && errno == EINTR) continue;
      LEVNET_CHECK_MSG(n > 0, "levnet_serve stopped reading requests");
      done += static_cast<std::size_t>(n);
    }
  }

  /// Next response line; false once the server closed its output.
  bool receive(std::string& line) {
    while (true) {
      const std::size_t newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        line.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[1 << 16];
      const ssize_t n = ::read(from_server_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Ends the request stream, reads up to the final stats line and reaps
  /// the child. Returns the stats line; `usage` receives the child's
  /// resource usage (peak RSS).
  std::string finish(rusage& usage) {
    ::close(to_server_);
    std::string line;
    std::string stats;
    while (receive(line)) stats = line;
    ::close(from_server_);
    int status = 0;
    LEVNET_CHECK(::wait4(pid_, &status, 0, &usage) == pid_);
    pid_ = -1;
    LEVNET_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                     "levnet_serve exited abnormally");
    return stats;
  }

 private:
  pid_t pid_ = -1;
  int to_server_ = -1;
  int from_server_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

/// An unsigned field of the server's final stats line (0 when absent).
std::uint64_t stats_field(const std::string& stats, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = stats.find(needle);
  if (at == std::string::npos) return 0;
  return std::stoull(stats.substr(at + needle.size()));
}

struct Exchange {
  std::vector<std::string> responses;  // in request order
  std::vector<double> latency_s;       // send -> response line read
  double wall_s = 0.0;
};

/// Closed loop with kWindow requests outstanding: a new request goes out
/// only when a response comes back. `next` yields request lines until it
/// returns false; every line sent is appended to `sent`. The session
/// answers in request order, so the oldest send time times each response.
template <typename Next>
Exchange exchange(ServerProcess& server, std::vector<std::string>& sent,
                  Next&& next) {
  Exchange x;
  const Stopwatch wall;
  std::deque<Stopwatch> outstanding;
  std::string line;
  while (true) {
    while (outstanding.size() < kWindow && next(line)) {
      outstanding.emplace_back();
      server.send(line);
      sent.push_back(line);
    }
    if (outstanding.empty()) break;
    std::string response;
    if (!server.receive(response)) break;  // missing responses fail below
    x.latency_s.push_back(outstanding.front().seconds());
    outstanding.pop_front();
    x.responses.push_back(std::move(response));
  }
  x.wall_s = wall.seconds();
  return x;
}

/// Sends a fixed list of lines through the closed loop.
Exchange exchange_all(ServerProcess& server, std::vector<std::string>& sent,
                      const std::vector<std::string>& lines) {
  std::size_t i = 0;
  return exchange(server, sent, [&](std::string& line) {
    if (i == lines.size()) return false;
    line = lines[i++];
    return true;
  });
}

std::string request_line(const char* spec, const char* program,
                         std::uint64_t seed, std::uint32_t steps = 0) {
  std::string line = "{\"spec\": \"";
  line += spec;
  line += "\", \"program\": \"";
  line += program;
  line += "\", \"seed\": " + std::to_string(seed);
  if (steps != 0) line += ", \"steps\": " + std::to_string(steps);
  line += "}";
  return line;
}

/// The serve-mix request stream. Requests come in blocks of kBlock that
/// hold each pair's exact share (largest-remainder rounding of Zipf(1.1)
/// over kZipfPairs for 90%, the faulted pairs splitting 10%), in
/// seed-shuffled order. Every seed therefore sees the same mix; the seed
/// moves only the order and the per-request emulator seeds, which keeps
/// the spread of throughput across seeds small.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(seed) {
    std::vector<std::pair<const Pair*, double>> weights;
    double zipf_sum = 0.0;
    for (std::size_t k = 1; k <= std::size(kZipfPairs); ++k) {
      zipf_sum += std::pow(static_cast<double>(k), -kZipfExponent);
    }
    for (std::size_t k = 1; k <= std::size(kZipfPairs); ++k) {
      weights.emplace_back(&kZipfPairs[k - 1],
                           (1.0 - kFaultedShare) *
                               std::pow(static_cast<double>(k),
                                        -kZipfExponent) /
                               zipf_sum);
    }
    for (const Pair& pair : kFaultedPairs) {
      weights.emplace_back(&pair, kFaultedShare / std::size(kFaultedPairs));
    }
    std::vector<std::pair<double, std::size_t>> remainders;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const double quota = weights[i].second * static_cast<double>(kBlock);
      block_.insert(block_.end(), static_cast<std::size_t>(quota),
                    weights[i].first);
      remainders.emplace_back(quota - std::floor(quota), i);
    }
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (std::size_t r = 0; block_.size() < kBlock; ++r) {
      block_.push_back(weights[remainders[r].second].first);
    }
  }

  std::string next() {
    if (cursor_ == order_.size()) {
      order_ = block_;
      support::shuffle(order_, rng_);
      cursor_ = 0;
    }
    const Pair* pair = order_[cursor_++];
    return request_line(pair->spec, pair->program, rng_());
  }

 private:
  support::Rng rng_;
  std::vector<const Pair*> block_;
  std::vector<const Pair*> order_;
  std::size_t cursor_ = 0;
};

/// The mix's distinct specs, most requested first and the faulted ones
/// last, each with the first program paired with it.
std::vector<Pair> distinct_specs() {
  std::vector<Pair> pairs;
  const auto add = [&](const Pair& pair) {
    if (std::none_of(pairs.begin(), pairs.end(), [&](const Pair& seen) {
          return std::string_view(seen.spec) == pair.spec;
        })) {
      pairs.push_back(pair);
    }
  };
  for (const Pair& pair : kZipfPairs) add(pair);
  for (const Pair& pair : kFaultedPairs) add(pair);
  return pairs;
}

/// One request per distinct spec: what the serve setup_s waits for after
/// spawning the server.
std::vector<std::string> warm_lines(std::uint64_t seed) {
  std::vector<std::string> lines;
  for (const Pair& pair : distinct_specs()) {
    lines.push_back(request_line(pair.spec, pair.program, seed));
  }
  return lines;
}

/// One levnet_serve instance's timed exchange and what it reported.
struct ServerView {
  Exchange exchange;
  std::string stats;
  rusage usage{};
};

/// Compares every response the server sent with the replay of the same
/// line, byte for byte; each line is one attempt.
void check_responses(Outcome& out, const std::vector<std::string>& responses,
                     const std::vector<Served>& replay,
                     const std::string& what) {
  for (std::size_t i = 0; i < replay.size(); ++i) {
    const bool ok = replay[i].ok && i < responses.size() &&
                    responses[i] == replay[i].response;
    out.record(ok, what + " response " + std::to_string(i));
  }
}

void check_stats(Outcome& out, const std::string& stats, std::size_t sent) {
  out.record(stats_field(stats, "ok") == sent &&
                 stats_field(stats, "errors") == 0,
             "levnet_serve stats line: " + stats);
}

// ----------------------------------------------------------- layer probes

routing::EndpointMap endpoints_of(const machine::Machine& m) {
  const emulation::EmulationFabric* fabric = &m.fabric();
  return [fabric](std::uint32_t i) { return fabric->proc_node(i); };
}

/// sim.route_s: one permutation through routing::run_workload on the
/// machine's own graph, router and engine config (no emulator).
double route_permutation(const machine::Machine& m, std::uint64_t seed,
                         Tracer* tracer, Outcome& out) {
  support::Rng rng(seed);
  const sim::Workload workload =
      sim::permutation_workload(m.processors(), rng);
  Section section(tracer, "sim.route", "route:" + std::to_string(seed));
  const routing::RoutingOutcome routed = routing::run_workload(
      m.graph(), m.router(), workload, m.engine_config(), rng,
      endpoints_of(m));
  const double seconds = section.stop();
  out.record(routed.complete, "routing::run_workload permutation");
  return seconds;
}

/// routing.hop_ns: prepare + next_hop walks of a permutation with no
/// engine, repeated for at least kMinLayerSeconds.
double walk_ns_per_hop(const machine::Machine& m, std::uint64_t seed,
                       Tracer* tracer, Outcome& out) {
  support::Rng rng(seed);
  const sim::Workload workload =
      sim::permutation_workload(m.processors(), rng);
  const routing::EndpointMap node = endpoints_of(m);
  const routing::Router& router = m.router();
  const std::uint64_t hop_limit = 4ULL * m.graph().node_count() + 64;
  std::uint64_t hops = 0;
  bool arrived = true;
  Section section(tracer, "routing.walk", "walk:" + std::to_string(seed));
  do {
    for (const sim::Demand& demand : workload) {
      sim::Packet p;
      p.src = node(demand.source);
      p.dst = node(demand.destination);
      router.prepare(p, rng);
      topology::NodeId at = p.src;
      std::uint64_t walked = 0;
      for (topology::NodeId next = router.next_hop(p, at, rng);
           next != topology::kInvalidNode && walked < hop_limit;
           next = router.next_hop(p, at, rng)) {
        p.came_from = at;
        at = next;
        ++p.hops;
        ++walked;
      }
      hops += walked;
      arrived = arrived && at == p.dst;
    }
  } while (section.elapsed() < kMinLayerSeconds);
  const double seconds = section.stop();
  out.record(arrived && hops > 0, "Router::next_hop walks reach their dst");
  return hops > 0 ? seconds * 1e9 / static_cast<double>(hops) : 0.0;
}

/// hashing.key_ns: PolynomialHash::evaluate_batch over one PRAM step's
/// worth of addresses, at the degree the emulator draws for this machine.
double hash_ns_per_key(const machine::Machine& m,
                       const pram::PramProgram& program, std::uint64_t seed,
                       Tracer* tracer, Outcome& out) {
  support::Rng rng(seed);
  const std::uint32_t degree = m.spec().hash_degree != 0
                                   ? m.spec().hash_degree
                                   : m.route_scale();
  const hashing::PolynomialHash h = hashing::PolynomialHash::sample(
      degree, program.address_space(), m.fabric().modules(), rng);
  std::vector<std::uint64_t> keys(m.processors());
  std::vector<std::uint64_t> hashed(keys.size());
  for (std::uint64_t& key : keys) key = rng.below(program.address_space());
  std::uint64_t evaluated = 0;
  Section section(tracer, "hashing.evaluate_batch",
                  "hash:" + std::to_string(seed));
  do {
    h.evaluate_batch(keys.data(), keys.size(), hashed.data());
    evaluated += keys.size();
  } while (section.elapsed() < kMinLayerSeconds);
  const double seconds = section.stop();
  out.record(hashed.front() == h(keys.front()) &&
                 hashed.back() == h(keys.back()),
             "evaluate_batch matches per-key evaluation");
  return seconds * 1e9 / static_cast<double>(evaluated);
}

/// The three engine-free layer probes, on one machine and program family.
void add_layer_probes(Outcome& out, const machine::Machine& m,
                      const char* program_key, std::uint32_t steps,
                      std::uint64_t seed, Tracer* tracer) {
  std::vector<double> routes;
  for (std::size_t r = 0; r < kRouteRepeats; ++r) {
    routes.push_back(route_permutation(
        m, analysis::TrialRunner::trial_seed(seed, static_cast<std::uint32_t>(
                                                       r)),
        tracer, out));
  }
  std::string error;
  const std::unique_ptr<pram::PramProgram> program =
      machine::make_program(program_key, m.processors(), seed, steps, error);
  LEVNET_CHECK_MSG(program != nullptr, error);
  out.add("sim.route_s", median(routes), "s");
  out.add("routing.hop_ns", walk_ns_per_hop(m, seed, tracer, out), "ns");
  out.add("hashing.key_ns", hash_ns_per_key(m, *program, seed, tracer, out),
          "ns");
}

/// The emulation-layer metrics shared by both workload kinds: medians of
/// the untraced pass, exact counts from the recorded pass over the same
/// inputs, and the tracing overhead between the two.
void add_emulation_layers(Outcome& out, const std::vector<Served>& plain,
                          const std::vector<Served>& traced) {
  std::vector<double> program_s, run_s, reference_s, decode_s, encode_s,
      hit_s, build_s;
  double plain_service = 0.0;
  double traced_service = 0.0;
  double run_total = 0.0;
  std::uint64_t transmissions = 0;
  std::uint64_t requests = 0, combined = 0, local = 0, rehashes = 0,
                pram_steps = 0;
  std::uint32_t peak_in_flight = 0, max_link_queue = 0;
  for (const Served& s : plain) {
    program_s.push_back(s.program_s);
    run_s.push_back(s.run_s);
    reference_s.push_back(s.reference_s);
    decode_s.push_back(s.decode_s);
    encode_s.push_back(s.encode_s);
    (s.cache == serve::CacheOutcome::kHit ? hit_s : build_s)
        .push_back(s.resolve_s);
    plain_service += s.service_s();
    run_total += s.run_s;
    requests += s.report.request_packets;
    combined += s.report.combined_requests;
    local += s.report.local_ops;
    rehashes += s.report.rehashes;
    pram_steps += s.report.pram_steps;
    peak_in_flight = std::max(peak_in_flight, s.report.peak_in_flight);
    max_link_queue = std::max(max_link_queue, s.report.max_link_queue);
  }
  for (const Served& s : traced) {
    traced_service += s.service_s();
    transmissions += s.transmissions;
  }
  const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  out.add("machine.program_s", median(program_s), "s");
  out.add("emulation.run_s", median(run_s), "s");
  out.add("pram.reference_s", median(reference_s), "s");
  out.add("emulation.slowdown", median(run_s) / median(reference_s),
          "ratio");
  out.add("emulation.combined_ratio", ratio(combined, requests), "ratio");
  out.add("emulation.local_ratio", ratio(local, requests + local), "ratio");
  out.add("emulation.rehash_ratio", ratio(rehashes, pram_steps), "1/step");
  out.add("emulation.peak_in_flight", peak_in_flight, "packets");
  out.add("sim.max_link_queue", max_link_queue, "packets");
  out.add("sim.transmissions",
          static_cast<double>(transmissions) /
              static_cast<double>(traced.size()),
          "count");
  out.add("sim.ns_per_hop",
          run_total * 1e9 / static_cast<double>(transmissions), "ns");
  out.add("serve.decode_us", median(decode_s) * 1e6, "us");
  out.add("serve.resolve_hit_us", median(hit_s) * 1e6, "us");
  out.add("serve.resolve_build_ms", median(build_s) * 1e3, "ms");
  out.add("serve.encode_us", median(encode_s) * 1e6, "us");
  out.add("obs.trace_overhead", traced_service / plain_service, "ratio");
}

/// The server-side layer metrics: its request rate and tail latency,
/// queueing (client latency minus the in-process service time of the same
/// request) and the stats line's batching and cache counters.
void add_server_layers(Outcome& out, const ServerView& server,
                       const std::vector<Served>& plain, std::size_t first) {
  const std::vector<double>& latency_s = server.exchange.latency_s;
  std::vector<double> queue_s;
  for (std::size_t i = 0; i < latency_s.size(); ++i) {
    queue_s.push_back(latency_s[i] - plain[first + i].service_s());
  }
  const auto requests =
      static_cast<double>(stats_field(server.stats, "requests"));
  out.add("serve.requests_per_s",
          static_cast<double>(latency_s.size()) / server.exchange.wall_s,
          "1/s");
  out.add("serve.latency_p99_ms", nearest_rank(latency_s, 0.99) * 1e3, "ms");
  out.add("serve.queue_ms", median(queue_s) * 1e3, "ms");
  out.add("serve.batch_mean",
          requests / static_cast<double>(stats_field(server.stats, "batches")),
          "requests");
  out.add("serve.cache_hit_ratio",
          static_cast<double>(stats_field(server.stats, "cache_hits")) /
              requests,
          "ratio");
  out.add("serve.uncacheable_ratio",
          static_cast<double>(stats_field(server.stats, "uncacheable")) /
              requests,
          "ratio");
}

struct Replay {
  std::vector<Served> plain;   // byte-comparable to the server's responses
  std::vector<Served> traced;  // spans + recorder; empty without a tracer
};

/// Replays request lines in process through a fresh farm of levnet_serve's
/// default capacity, so cache outcomes match the server's. With a tracer,
/// each line runs a second time right after, through a second farm, with
/// spans and a recorder; interleaving the two keeps host drift out of
/// obs.trace_overhead.
Replay replay(const std::vector<std::string>& lines, const char* root,
              const std::string& id_prefix,
              const std::vector<std::uint64_t>& ids, Tracer* tracer) {
  serve::Farm plain_farm(serve::FarmConfig{});
  serve::Farm traced_farm(serve::FarmConfig{});
  Replay r;
  for (std::size_t seq = 0; seq < lines.size(); ++seq) {
    const std::string id = id_prefix + std::to_string(ids[seq]);
    r.plain.push_back(
        serve_line(plain_farm, lines[seq], seq, root, id, nullptr, false));
    if (tracer != nullptr) {
      r.traced.push_back(
          serve_line(traced_farm, lines[seq], seq, root, id, tracer, true));
    }
  }
  return r;
}

// ---------------------------------------------------------- emu workloads

Outcome run_emu(const EmuWorkload& w, std::uint64_t seed, double seconds,
                Tracer* tracer) {
  Outcome out;
  const machine::MachineSpec spec = machine::parse_spec(w.spec);
  std::vector<double> builds;
  std::optional<machine::Machine> m;
  const auto rebuild = [&] {
    m.reset();  // one machine alive at a time, so peak RSS is one machine's
    Section build(tracer, "machine.build",
                  "build:" + std::to_string(builds.size()));
    m.emplace(machine::Machine::build(spec));
    builds.push_back(build.stop());
  };
  m.emplace(machine::Machine::build(spec));

  std::uint64_t base = seed;
  base = support::splitmix64(base);  // distinct seeds share no trial seeds
  std::uint32_t index = 0;
  const auto next_seed = [&] {
    return analysis::TrialRunner::trial_seed(base, index++);
  };
  const auto trial = [&] {
    const std::uint64_t trial_seed = next_seed();
    Trial t = run_trial(*m, w, trial_seed);
    out.record(t.ok, "trial seed " + std::to_string(trial_seed));
    return t;
  };
  // Warm-up: the first build and trial grow the heap. Builds in a fresh
  // process page-fault and read up to 1.5x slower, so the timed builds and
  // trials all come after this.
  (void)trial();
  for (std::size_t i = 0; i < kSetupBuilds; ++i) rebuild();

  if (tracer == nullptr) {
    std::vector<double> trial_s;
    double pram_steps = 0.0;
    double network_steps = 0.0;
    const Stopwatch window;
    while (trial_s.size() < kMinTrials || window.seconds() < seconds) {
      // Rebuilding before every trial spreads the setup_s samples over the
      // whole window, so host contention at start-up does not decide them.
      rebuild();
      const Trial t = trial();
      trial_s.push_back(t.program_s + t.run_s);
      pram_steps += t.report.pram_steps;
      network_steps += static_cast<double>(t.report.network_steps);
    }
    const double trials = static_cast<double>(trial_s.size());
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    out.add("pram_ops_per_s",
            m->processors() * (pram_steps / trials) / median(trial_s), "1/s");
    out.add("net_steps_per_pram_step", network_steps / pram_steps, "steps");
    out.add("latency_p50_ms", median(trial_s) * 1e3, "ms");
    out.add("setup_s", median(builds), "s");
    out.add("peak_rss_mb", peak_rss_mb(usage), "MB");
    return out;
  }

  // Traced: the same trial seeds through the serve path in process, once
  // plain and once with spans and a recorder, then through levnet_serve.
  const std::string canonical = spec.to_string();
  std::vector<std::string> lines;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kTraceTrials; ++i) {
    seeds.push_back(next_seed());
    lines.push_back(request_line(canonical.c_str(), w.program, seeds.back(),
                                 w.steps));
  }
  const auto [plain, traced] = replay(lines, "trial", "trial:", seeds, tracer);
  for (const Served& s : traced) out.record(s.ok, "traced trial");

  ServerView server;
  {
    ServerProcess process;
    std::vector<std::string> sent;
    server.exchange = exchange_all(process, sent, lines);
    server.stats = process.finish(server.usage);
    check_responses(out, server.exchange.responses, plain, "levnet_serve");
    check_stats(out, server.stats, sent.size());
  }

  out.add("machine.build_s", median(builds), "s");
  add_emulation_layers(out, plain, traced);
  add_server_layers(out, server, plain, 0);
  add_layer_probes(out, *m, w.program, w.steps, base, tracer);
  return out;
}

// --------------------------------------------------------- serve workload

Outcome run_serve(std::uint64_t seed, double seconds, Tracer* tracer) {
  Outcome out;
  const std::vector<std::string> warm = warm_lines(seed);
  std::vector<double> setups;
  std::vector<std::vector<std::string>> setup_responses;
  std::optional<ServerProcess> process;
  std::vector<std::string> sent;
  for (std::size_t rep = 0; rep < kServeSetups; ++rep) {
    if (process.has_value()) {
      rusage usage{};
      check_stats(out, process->finish(usage), sent.size());
      process.reset();
    }
    sent.clear();
    const Stopwatch since_spawn;
    process.emplace();
    setup_responses.push_back(exchange_all(*process, sent, warm).responses);
    setups.push_back(since_spawn.seconds());
  }

  RequestStream stream(seed);
  const Stopwatch window;
  ServerView server;
  server.exchange = exchange(*process, sent, [&](std::string& line) {
    if (window.seconds() >= seconds) return false;
    line = stream.next();
    return true;
  });
  const Exchange& timed = server.exchange;
  server.stats = process->finish(server.usage);
  process.reset();
  check_stats(out, server.stats, sent.size());

  // Every response of every server instance must equal the in-process
  // replay of its line.
  std::vector<std::uint64_t> ids(sent.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const auto [plain, traced] = replay(sent, "request", "req:", ids, tracer);
  for (const Served& s : traced) out.record(s.ok, "traced request");
  const std::vector<Served> warm_replay(plain.begin(),
                                        plain.begin() + warm.size());
  for (const std::vector<std::string>& responses : setup_responses) {
    check_responses(out, responses, warm_replay, "setup");
  }
  const std::vector<Served> timed_replay(plain.begin() + warm.size(),
                                         plain.end());
  check_responses(out, timed.responses, timed_replay, "timed");

  if (tracer == nullptr) {
    double pram_ops = 0.0;
    std::uint64_t network_steps = 0;
    std::uint64_t pram_steps = 0;
    for (const Served& s : timed_replay) {
      pram_ops += static_cast<double>(s.processors) *
                  static_cast<double>(s.report.pram_steps);
      network_steps += s.report.network_steps;
      pram_steps += s.report.pram_steps;
    }
    out.add("pram_ops_per_s", pram_ops / timed.wall_s, "1/s");
    out.add("net_steps_per_pram_step",
            static_cast<double>(network_steps) /
                static_cast<double>(pram_steps),
            "steps");
    out.add("latency_p50_ms", median(timed.latency_s) * 1e3, "ms");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss_mb(server.usage), "MB");
    return out;
  }

  std::vector<double> builds;
  std::optional<machine::Machine> top;  // the most requested spec
  for (const Pair& pair : distinct_specs()) {
    const machine::MachineSpec spec = machine::parse_spec(pair.spec);
    Section build(tracer, "machine.build",
                  "build:" + std::to_string(builds.size()));
    machine::Machine m = machine::Machine::build(spec);
    builds.push_back(build.stop());
    if (!top.has_value()) top.emplace(std::move(m));
  }
  out.add("machine.build_s", median(builds), "s");
  add_emulation_layers(out, plain, traced);
  add_server_layers(out, server, plain, warm.size());
  add_layer_probes(out, *top, kZipfPairs[0].program,
                   serve::SessionConfig{}.default_steps, seed, tracer);
  return out;
}

// --------------------------------------------------------------------- main

constexpr char kUsage[] =
    "usage: levnet_perf --workload NAME --seed N --seconds S [--trace DIR]\n"
    "  workloads: star-erew star-erew-t4 star-crcw-hist mesh-bounded "
    "serve-mix\n"
    "  --trace DIR  per-layer metrics instead of end-to-end ones, and the\n"
    "               run's spans written to DIR/trace-NAME-sN.json\n";

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead server shows up as a failed write
  std::string workload;
  std::string trace_dir;
  std::uint64_t seed = 0;
  unsigned long seconds = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      have_seed = machine::parse_count_u64(value, seed);
    } else if (flag == "--seconds") {
      if (!machine::parse_count(value, seconds)) seconds = 0;
    } else if (flag == "--trace") {
      trace_dir = value;
    } else {
      workload.clear();
      break;
    }
  }
  if (argc % 2 == 0 || workload.empty() || !have_seed || seconds == 0) {
    std::cerr << kUsage;
    return 2;
  }

  std::optional<Tracer> tracer;
  if (!trace_dir.empty()) tracer.emplace();
  Tracer* const spans = tracer.has_value() ? &*tracer : nullptr;
  const auto budget = static_cast<double>(seconds);

  std::optional<Outcome> out;
  for (const EmuWorkload& w : kEmuWorkloads) {
    if (w.name == workload) out = run_emu(w, seed, budget, spans);
  }
  if (workload == kServeWorkload) out = run_serve(seed, budget, spans);
  if (!out.has_value()) {
    std::cerr << "levnet_perf: unknown workload '" << workload << "'\n"
              << kUsage;
    return 2;
  }

  if (spans != nullptr) {
    const std::string path = trace_dir + "/trace-" + workload + "-s" +
                             std::to_string(seed) + ".json";
    std::ofstream file(path);
    spans->write_chrome(file);
    file.close();
    LEVNET_CHECK_MSG(file.good(), "cannot write " + path);
  }
  out->print(std::cout);
  return out->correct() ? 0 : 1;
}
