// The net probe: real loopback TCP against net::HttpServer::run. One
// single-threaded nonblocking client sends an open-loop Poisson stream
// of chunked /v1/completions over a few keep-alive connections and
// scrapes GET /metrics at a fixed period on the same connections.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "net/server.hpp"
#include "net/signals.hpp"
#include "serve/metrics.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nora;

namespace {

constexpr double kHttpRate = 60.0;      // arrivals per second (fixed)
constexpr double kProbeS = 3.0;         // measured stream after warm-up
constexpr Slo kHttpSlo{25.0, 10.0};
constexpr int kConns = 4;               // keep-alive connections (<= nproc)
constexpr double kScrapePeriodS = 0.05;
constexpr int kHttpNewTokens = 8;
constexpr double kWarmS = 1.0;
constexpr std::size_t kSameTokensSample = 32;

/// One client connection and its incremental HTTP/1.1 response parser.
struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  enum class St { kIdle, kHead, kChunkSize, kChunkData, kBody } st = St::kIdle;
  int status = 0;
  std::size_t remaining = 0;
  std::int64_t req = -1;  // index into the client's request list
  double sent_s = 0.0;

  bool idle() const { return st == St::kIdle; }
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("net probe: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("net probe: connect failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

std::string completion_request(const serve::RequestParams& p) {
  std::string body = "{\"prompt\":[";
  for (std::size_t i = 0; i < p.prompt.size(); ++i) {
    if (i > 0) body += ",";
    body += std::to_string(p.prompt[i]);
  }
  body += "],\"max_new_tokens\":" + std::to_string(p.max_new_tokens) +
          ",\"stream\":true,\"stream_seed\":" + std::to_string(p.stream_seed) + "}";
  return "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Everything the client measured over one run. Its size is fixed by the
/// offered load (a request count set by the rate and the run length),
/// not by how fast the server answers.
struct ClientLog {
  explicit ClientLog(WindowStats& w) : window(w) {}
  WindowStats& window;
  std::vector<serve::RequestParams> params;
  std::vector<Tracked> reqs;
  std::vector<int> replay_of;  // request -> index into replays, or -1
  std::vector<Replay> replays;
  std::vector<double> late_ms;
  std::vector<double> scrape_ms;
  std::int64_t failed = 0;
};

/// Server, scheduler and deployed model for one probe run.
struct HttpStack {
  Stack stack;
  std::unique_ptr<serve::Scheduler> sched;
  std::unique_ptr<net::HttpServer> server;

  HttpStack() = default;
  HttpStack(HttpStack&&) = default;
  // Release in dependency order: server, then scheduler, then model.
  HttpStack& operator=(HttpStack&& o) noexcept {
    server = std::move(o.server);
    sched = std::move(o.sched);
    stack = std::move(o.stack);
    return *this;
  }
};

class Client {
 public:
  Client(int port, ClientLog& log, Tracer& tr, std::int64_t root)
      : log_(log), tr_(tr), root_(root) {
    for (int i = 0; i < kConns; ++i) {
      conns_.emplace_back();
      conns_.back().fd = connect_loopback(port);
    }
  }
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Drive the whole schedule; returns when every request has ended or
  /// the deadline passed (remaining requests then count as failed).
  void run(const std::vector<double>& due_abs, double scrape_until,
           double deadline) {
    std::size_t next = 0;
    std::size_t done = 0;
    double next_scrape = now_s();
    std::vector<pollfd> pfds(conns_.size());
    while (done < due_abs.size() && now_s() < deadline &&
           !net::shutdown_requested()) {
      const double now = now_s();
      // Requests due now go out on the first idle connection; with none
      // idle they wait here (and run late). Scrapes share the connections.
      while (next < due_abs.size() && due_abs[next] <= now) {
        Conn* c = idle_conn();
        if (c == nullptr) break;
        send_completion(*c, static_cast<std::int64_t>(next));
        ++next;
      }
      Conn* scrape =
          now >= next_scrape && now < scrape_until ? idle_conn() : nullptr;
      if (scrape != nullptr) {
        Conn& sc = *scrape;
        sc.out = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
        sc.out_off = 0;
        sc.st = Conn::St::kHead;
        sc.req = -1;
        sc.sent_s = now_s();
        flush(sc);
        next_scrape += kScrapePeriodS;
        if (next_scrape < now) next_scrape = now + kScrapePeriodS;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        pfds[i].fd = conns_[i].fd;
        pfds[i].events = static_cast<short>(
            POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
        pfds[i].revents = 0;
      }
      // Spin (timeout 0): a sleeping client's wake-up latency would be
      // charged to the server as lateness and TTFT.
      if (::poll(pfds.data(), pfds.size(), 0) < 0 && errno != EINTR) {
        throw std::runtime_error("net probe: poll failed");
      }
      const double t = now_s();
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = conns_[i];
        if (pfds[i].revents & POLLOUT) flush(c);
        if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          done += read_and_parse(c, t);
        }
      }
    }
    for (std::size_t i = done; i < due_abs.size(); ++i) ++log_.failed;
  }

 private:
  Conn* idle_conn() {
    for (Conn& c : conns_) {
      if (c.idle() && c.fd >= 0) return &c;
    }
    return nullptr;
  }

  void send_completion(Conn& c, std::int64_t idx) {
    Tracked& r = log_.reqs[static_cast<std::size_t>(idx)];
    c.out = completion_request(log_.params[static_cast<std::size_t>(idx)]);
    c.out_off = 0;
    c.st = Conn::St::kHead;
    c.req = idx;
    c.sent_s = now_s();
    r.submit_s = c.sent_s;
    log_.late_ms.push_back((c.sent_s - r.due_s) * 1e3);
    flush(c);
  }

  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else {
        break;  // EAGAIN: poll for POLLOUT; errors surface on read
      }
    }
  }

  /// Returns 1 when a completion request ended (well or not).
  int read_and_parse(Conn& c, double t) {
    char buf[16384];
    bool closed = false;
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) closed = true;
      break;
    }
    int ended = parse(c, t);
    if (closed) {
      ::close(c.fd);
      c.fd = -1;
      if (!c.idle()) {
        ++log_.failed;
        if (c.req >= 0) ended += 1;
        c.st = Conn::St::kIdle;
      }
    }
    return ended;
  }

  int parse(Conn& c, double t) {
    int ended = 0;
    while (true) {
      if (c.st == Conn::St::kHead) {
        const auto end = c.in.find("\r\n\r\n");
        if (end == std::string::npos) return ended;
        const std::string head = c.in.substr(0, end);
        c.in.erase(0, end + 4);
        c.status = std::atoi(head.c_str() + head.find(' ') + 1);
        std::string lower = head;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char ch) { return std::tolower(ch); });
        if (lower.find("transfer-encoding: chunked") != std::string::npos) {
          c.st = Conn::St::kChunkSize;
        } else {
          const auto cl = lower.find("content-length:");
          c.remaining = cl == std::string::npos
                            ? 0
                            : std::strtoul(lower.c_str() + cl + 15, nullptr, 10);
          c.st = Conn::St::kBody;
        }
      } else if (c.st == Conn::St::kChunkSize) {
        const auto eol = c.in.find("\r\n");
        if (eol == std::string::npos) return ended;
        const std::size_t size = std::strtoul(c.in.c_str(), nullptr, 16);
        if (size == 0) {
          if (c.in.size() < eol + 4) return ended;  // "0\r\n\r\n"
          c.in.erase(0, eol + 4);
          ended += finish(c, t);
        } else {
          c.in.erase(0, eol + 2);
          c.remaining = size;
          c.st = Conn::St::kChunkData;
        }
      } else if (c.st == Conn::St::kChunkData) {
        if (c.in.size() < c.remaining + 2) return ended;
        on_chunk(c, c.in.substr(0, c.remaining), t);
        c.in.erase(0, c.remaining + 2);
        c.st = Conn::St::kChunkSize;
      } else if (c.st == Conn::St::kBody) {
        if (c.in.size() < c.remaining) return ended;
        c.in.erase(0, c.remaining);
        ended += finish(c, t);
      } else {
        return ended;
      }
    }
  }

  void on_chunk(Conn& c, const std::string& payload, double t) {
    if (c.req < 0) return;
    const auto i = static_cast<std::size_t>(c.req);
    Tracked& r = log_.reqs[i];
    if (payload.rfind("{\"token\":", 0) == 0) {
      const int token = std::atoi(payload.c_str() + 9);
      log_.window.on_token(r, token, t);
      if (log_.replay_of[i] >= 0) {
        log_.replays[static_cast<std::size_t>(log_.replay_of[i])]
            .tokens.push_back(token);
      }
    } else if (payload.rfind("{\"done\":true", 0) == 0) {
      r.finished = payload.find("\"state\":\"finished\"") != std::string::npos;
    }
  }

  int finish(Conn& c, double t) {
    c.st = Conn::St::kIdle;
    if (c.req < 0) {
      log_.scrape_ms.push_back((t - c.sent_s) * 1e3);
      if (c.status != 200) ++log_.failed;
      return 0;
    }
    const auto i = static_cast<std::size_t>(c.req);
    Tracked& r = log_.reqs[i];
    tr_.record("net.request", r.submit_s, t, root_, c.req);
    log_.window.on_end(r, c.status == 200 && r.finished);
    if (log_.replay_of[i] >= 0) {
      log_.replays[static_cast<std::size_t>(log_.replay_of[i])].finished =
          r.finished;
    }
    if (!r.finished) ++log_.failed;
    c.req = -1;
    return 1;
  }

  ClientLog& log_;
  Tracer& tr_;
  std::int64_t root_;
  std::vector<Conn> conns_;
};

}  // namespace

void add_net_probe(Context& ctx, Results& out) {
  const Options& o = ctx.opt;
  Tracer& tr = ctx.tracer;
  // Client thread + server loop + (pool - 1) workers <= 4 threads.
  const int pool = begin_pass(ctx, true, 2).pool;
  net::install_signal_handlers();
  net::reset_shutdown_flag();

  const std::int64_t root = tr.open("net_probe");
  HttpStack hs;
  hs.stack = deploy_stack({pool, 1, 1}, tr, root, nullptr);
  serve::SchedulerConfig cfg;
  cfg.max_batch = 8;
  cfg.record_events = true;
  hs.sched = std::make_unique<serve::Scheduler>(*hs.stack.model, cfg);
  {
    ScopedSpan listen(tr, "net.listen", root);
    hs.server = std::make_unique<net::HttpServer>(*hs.sched, net::ServerConfig{});
    hs.server->listen();
  }
  nn::TransformerLM& model = *hs.stack.model;
  const auto cfg_task = model_spec().task;

  const double warm_s = o.smoke ? 0.2 : kWarmS;
  const double span_s = warm_s + (o.smoke ? 0.5 : kProbeS);
  const auto n = static_cast<std::size_t>(kHttpRate * span_s);
  util::Rng rng(util::derive_seed(o.seed, "net-probe"));
  std::vector<double> due(n);
  for (double& t : due) t = rng.uniform() * span_s;
  std::sort(due.begin(), due.end());
  // The window only tracks each request's first token here.
  WindowStats window(kHttpSlo, true);
  ClientLog log(window);
  log.params.resize(n);
  log.reqs.resize(n);
  log.replay_of.assign(n, -1);
  const std::size_t replay_stride = std::max<std::size_t>(1, n / kSameTokensSample);
  for (std::size_t i = 0; i < n; ++i) {
    const int head_len = 7 + static_cast<int>(rng.uniform_index(10));  // 9..18
    const Prompt p =
        extend_head(cfg_task, rng, make_head(cfg_task, rng, head_len), 0);
    serve::RequestParams& params = log.params[i];
    params.prompt = p.tokens;
    params.max_new_tokens = kHttpNewTokens;
    params.stream_seed = (rng.next_u64() >> 12) | 1;
    if (i % replay_stride == 0 && log.replays.size() < kSameTokensSample) {
      log.replay_of[i] = static_cast<int>(log.replays.size());
      log.replays.push_back({params, {}, false});
    }
  }

  std::atomic<int> server_rc{-1};
  std::string server_error;
  std::thread server_thread([&] {
    try {
      server_rc = hs.server->run();
    } catch (const std::exception& e) {
      server_error = e.what();
      server_rc = 2;
    }
  });
  const double t0 = now_s() + 0.05;
  std::vector<double> due_abs(n);
  for (std::size_t i = 0; i < n; ++i) {
    due_abs[i] = t0 + due[i];
    log.reqs[i].due_s = due_abs[i];
  }
  {
    Client client(hs.server->port(), log, tr, root);
    client.run(due_abs, t0 + span_s, t0 + span_s + 60.0);
  }  // connections close here, so the drain below has nothing to wait on
  const bool interrupted = net::shutdown_requested();
  std::raise(SIGTERM);
  server_thread.join();
  net::reset_shutdown_flag();
  if (interrupted) throw std::runtime_error("net probe: interrupted by a signal");
  tr.close(root);
  out.gate(server_rc == 0, "net probe: server exited with " +
                               std::to_string(server_rc.load()) + " " +
                               server_error);

  std::int64_t tokens_total = 0;
  std::vector<double> client_ttft;
  for (const Tracked& r : log.reqs) {
    tokens_total += r.n_tokens;
    if (r.n_tokens > 0) client_ttft.push_back((r.first_s - r.submit_s) * 1e3);
  }
  const serve::Metrics m = hs.sched->metrics();
  const net::NetMetrics& nm = hs.server->net_metrics();
  out.add("net.overhead_ms_p50",
          median(client_ttft) - serve::percentile(m.ttft_s, 0.5) * 1e3, "ms");
  out.add("net.scrape_ms_p50", serve::percentile(log.scrape_ms, 0.5), "ms");
  out.add("net.scrape_ms_p99", serve::percentile(log.scrape_ms, 0.99), "ms");
  out.add("net.bytes_out_per_token",
          static_cast<double>(nm.bytes_out) /
              static_cast<double>(std::max<std::int64_t>(tokens_total, 1)),
          "bytes");
  out.add("net.failed", static_cast<double>(log.failed), "count");
  out.add("net.generator_late_ms_p99", serve::percentile(log.late_ms, 0.99),
          "ms");

  out.gate(log.failed == 0, "net probe: " + std::to_string(log.failed) +
                                " requests or scrapes failed");
  // Streamed tokens must equal what the same stream seed yields in-process.
  const int bad = reserve_alone_mismatches(model, log.replays);
  out.gate(bad == 0, "net probe: " + std::to_string(bad) +
                         " streamed requests differ from in-process tokens");
  ctx.note("net_probe",
           "{\"requests\": " + std::to_string(n) +
               ", \"scrapes\": " + std::to_string(log.scrape_ms.size()) +
               ", \"pool\": " + std::to_string(pool) + "}");
  check_generator(ctx, log.late_ms, kHttpSlo);
}

}  // namespace perfbench
