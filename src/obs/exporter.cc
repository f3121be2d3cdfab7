#include "obs/exporter.h"

#if MFGCP_OBS_ENABLED

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/build_info.h"
#include "obs/flight_dump.h"

namespace mfg::obs {
namespace {

std::atomic<bool> g_plan_ready{false};

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
// names map '.' (and any other byte) to '_'.
std::string SanitizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || !(std::isalpha(static_cast<unsigned char>(name[0])) ||
                        name[0] == '_' || name[0] == ':')) {
    out.push_back('_');
  }
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendDouble(std::string& out, double value) {
  char buf[64];
  if (std::isnan(value)) {
    out += "NaN";
  } else if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
  }
}

void AppendBound(std::string& out, double bound) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", bound);
  out += buf;
}

void AppendJsonString(std::string& out, const std::string& value) {
  out.push_back('"');
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

struct HttpResponse {
  int code = 200;
  const char* reason = "OK";
  const char* content_type = "text/plain; charset=utf-8";
  std::string body;
};

void WriteResponse(int fd, const HttpResponse& response) {
  char header[256];
  const int header_len = std::snprintf(
      header, sizeof(header),
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      response.code, response.reason, response.content_type,
      response.body.size());
  std::string wire(header, static_cast<std::size_t>(header_len));
  wire += response.body;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // Peer went away; nothing to salvage.
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

AdminExporter& AdminExporter::Global() {
  static AdminExporter* exporter = new AdminExporter();
  return *exporter;
}

AdminExporter::~AdminExporter() { Stop(); }

common::Status AdminExporter::Start(const ExporterOptions& options) {
  if (active()) {
    return common::Status::FailedPrecondition("admin exporter already active");
  }
  if (options.port < 0 || options.port > 65535) {
    return common::Status::InvalidArgument("admin_port out of range");
  }
  if (options.epochz_capacity == 0) {
    return common::Status::InvalidArgument("epochz_capacity must be > 0");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    return common::Status::InvalidArgument("bad admin bind address: " +
                                           options.bind_address);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return common::Status::IoError("socket(): " +
                                   std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return common::Status::IoError("bind(" + options.bind_address + ":" +
                                   std::to_string(options.port) + "): " + err);
  }
  if (::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return common::Status::IoError("listen(): " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return common::Status::IoError("getsockname(): " + err);
  }
  if (::pipe(wake_fds_) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return common::Status::IoError("pipe(): " + err);
  }

  options_ = options;
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(bound.sin_port));
  {
    std::lock_guard<std::mutex> lock(ring_mutex_);
    ring_.assign(options.epochz_capacity, EpochRecord{});
    ring_total_ = 0;
  }
  ring_copy_.reserve(options.epochz_capacity);
  requests_served_.store(0, std::memory_order_relaxed);
  shutdown_.store(false, std::memory_order_release);

  // Build provenance as scrapeable gauges (the labeled mfgcp_build_info
  // line is synthesized at render time from the same source).
  const common::BuildInfo& build = common::GetBuildInfo();
  Registry::Global().GetGauge("build.info.obs").Set(build.obs_enabled ? 1 : 0);
  Registry::Global()
      .GetGauge("build.info.faults")
      .Set(build.faults_enabled ? 1 : 0);
  Registry::Global()
      .GetGauge("build.info.simd")
      .Set(build.simd_enabled ? 1 : 0);

  thread_ = std::thread(&AdminExporter::ServerMain, this);
  active_.store(true, std::memory_order_release);
  return common::Status::Ok();
}

void AdminExporter::Stop() {
  if (!thread_.joinable()) return;
  shutdown_.store(true, std::memory_order_release);
  const char wake = 'x';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &wake, 1);
  thread_.join();
  CloseFd(listen_fd_);
  CloseFd(wake_fds_[0]);
  CloseFd(wake_fds_[1]);
  active_.store(false, std::memory_order_release);
}

void AdminExporter::RecordEpoch(const EpochRecord& record) {
  if (!active()) return;
  std::lock_guard<std::mutex> lock(ring_mutex_);
  if (ring_.empty()) return;
  ring_[ring_total_ % ring_.size()] = record;
  ++ring_total_;
}

void AdminExporter::ServerMain() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_fds_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;  // poll() broke irrecoverably; Stop() still joins cleanly.
    }
    if (fds[1].revents != 0) continue;  // Woken for shutdown; loop re-checks.
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    HandleConnection(conn);
    ::close(conn);
  }
}

void AdminExporter::HandleConnection(int fd) {
  // A slow or stuck client must not wedge the admin plane.
  timeval timeout{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  char buf[4096];
  std::string request;
  while (request.find("\r\n") == std::string::npos &&
         request.size() < sizeof(buf)) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;

  // Request line: METHOD SP PATH SP VERSION.
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    WriteResponse(fd, {400, "Bad Request", "text/plain; charset=utf-8",
                       "bad request\n"});
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (method != "GET" && method != "HEAD") {
    WriteResponse(fd, {405, "Method Not Allowed",
                       "text/plain; charset=utf-8", "GET only\n"});
    return;
  }

  HttpResponse response;
  if (path == "/metrics") {
    CaptureSnapshot(snapshot_);
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderPrometheus(snapshot_);
  } else if (path == "/healthz") {
    response.body = "ok\n";
  } else if (path == "/readyz") {
    if (AdminReady()) {
      response.body = "ready\n";
    } else {
      response = {503, "Service Unavailable", "text/plain; charset=utf-8",
                  "no plan published yet\n"};
    }
  } else if (path == "/epochz") {
    std::size_t capacity = 0;
    {
      std::lock_guard<std::mutex> lock(ring_mutex_);
      capacity = ring_.size();
      const std::uint64_t count =
          ring_total_ < ring_.size() ? ring_total_
                                     : static_cast<std::uint64_t>(ring_.size());
      ring_copy_.clear();
      for (std::uint64_t k = 0; k < count; ++k) {
        ring_copy_.push_back(ring_[(ring_total_ - count + k) % ring_.size()]);
      }
    }
    response.content_type = "application/json; charset=utf-8";
    response.body = RenderEpochJson(ring_copy_, capacity);
  } else if (path == "/flightz") {
    const FlightDumpOptions dump_options = GetFlightDumpOptions();
    const std::vector<std::string> files = ListFlightDumps();
    std::string body = "{\"directory\":";
    AppendJsonString(body, dump_options.directory);
    body += ",\"count\":" + std::to_string(files.size()) + ",\"files\":[";
    for (std::size_t k = 0; k < files.size(); ++k) {
      if (k > 0) body.push_back(',');
      AppendJsonString(body, files[k]);
    }
    body += "]}\n";
    response.content_type = "application/json; charset=utf-8";
    response.body = std::move(body);
  } else if (path == "/") {
    response.body =
        "mfgcp admin endpoints:\n"
        "  /metrics  Prometheus text exposition\n"
        "  /healthz  liveness\n"
        "  /readyz   readiness (first plan published)\n"
        "  /epochz   recent epoch health ring (JSON)\n"
        "  /flightz  flight-dump file list (JSON)\n";
  } else {
    response = {404, "Not Found", "text/plain; charset=utf-8",
                "not found\n"};
  }
  if (method == "HEAD") response.body.clear();
  WriteResponse(fd, response);
}

std::string AdminExporter::RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);

  const common::BuildInfo& build = common::GetBuildInfo();
  out += "# HELP mfgcp_build_info Build provenance baked in at configure "
         "time.\n# TYPE mfgcp_build_info gauge\nmfgcp_build_info{";
  out += "git_describe=";
  AppendJsonString(out, build.git_describe);
  out += ",compiler=";
  AppendJsonString(out, build.compiler);
  out += ",build_type=";
  AppendJsonString(out, build.build_type);
  out += ",obs=\"";
  out += build.obs_enabled ? "on" : "off";
  out += "\",faults=\"";
  out += build.faults_enabled ? "on" : "off";
  out += "\",simd=\"";
  out += build.simd_enabled ? "on" : "off";
  out += "\"} 1\n";

  for (const CounterSample& counter : snapshot.counters) {
    const std::string name = SanitizeName(counter.name) + "_total";
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(counter.value) + "\n";
  }
  for (const GaugeSample& gauge : snapshot.gauges) {
    const std::string name = SanitizeName(gauge.name);
    out += "# TYPE " + name + " gauge\n";
    out += name + " ";
    AppendDouble(out, gauge.value);
    out += "\n";
  }
  for (const HistogramSample& histogram : snapshot.histograms) {
    const std::string name = SanitizeName(histogram.name);
    out += "# TYPE " + name + " histogram\n";
    // Prometheus buckets are cumulative; the registry's are per-bucket.
    // _count is emitted as the +Inf cumulative value (not the racy
    // separate count_ atomic) so every scrape is internally consistent
    // even while recorders are mid-Observe.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < histogram.num_bounds; ++b) {
      cumulative += histogram.buckets[b];
      out += name + "_bucket{le=\"";
      AppendBound(out, histogram.bounds[b]);
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    cumulative += histogram.buckets[histogram.num_bounds];
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += name + "_sum ";
    AppendDouble(out, histogram.sum);
    out += "\n";
    out += name + "_count " + std::to_string(cumulative) + "\n";
  }
  return out;
}

std::string AdminExporter::RenderEpochJson(
    const std::vector<EpochRecord>& records, std::size_t capacity) {
  std::string out = "{\"capacity\":" + std::to_string(capacity) +
                    ",\"count\":" + std::to_string(records.size()) +
                    ",\"reports\":[";
  for (std::size_t k = 0; k < records.size(); ++k) {
    if (k > 0) out.push_back(',');
    out.push_back('{');
    AppendEpochRecordJson(out, records[k]);
    out.push_back('}');
  }
  out += "]}\n";
  return out;
}

bool AdminActive() { return AdminExporter::Global().active(); }

int AdminPort() {
  AdminExporter& exporter = AdminExporter::Global();
  return exporter.active() ? exporter.port() : -1;
}

void AdminRecordEpoch(const EpochRecord& record) {
  AdminExporter::Global().RecordEpoch(record);
}

void AdminSetReady(bool ready) {
  g_plan_ready.store(ready, std::memory_order_release);
}

bool AdminReady() { return g_plan_ready.load(std::memory_order_acquire); }

}  // namespace mfg::obs

#endif  // MFGCP_OBS_ENABLED
