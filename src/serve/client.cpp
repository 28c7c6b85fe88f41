#include "serve/client.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ced::serve {

Client::Client(ClientOptions opts)
    : opts_(std::move(opts)), retry_(opts_.retry, opts_.seed) {}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::connect() {
  if (fd_ >= 0) return Status::make_ok();
  int fd = -1;
  if (!opts_.unix_socket.empty()) {
    sockaddr_un addr{};
    if (opts_.unix_socket.size() >= sizeof(addr.sun_path)) {
      return Status::invalid_input(Stage::kParse, "unix socket path too long");
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::internal(Stage::kParse,
                              std::string("socket: ") + std::strerror(errno));
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.unix_socket.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const Status st = Status::internal(
          Stage::kParse, "connect " + opts_.unix_socket + ": " +
                             std::strerror(errno));
      ::close(fd);
      return st;
    }
  } else if (opts_.tcp_port >= 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::internal(Stage::kParse,
                              std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.tcp_port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const Status st = Status::internal(
          Stage::kParse, "connect 127.0.0.1:" + std::to_string(opts_.tcp_port) +
                             ": " + std::strerror(errno));
      ::close(fd);
      return st;
    }
  } else {
    return Status::invalid_input(Stage::kParse,
                                 "client has no endpoint configured");
  }
  fd_ = fd;
  return Status::make_ok();
}

Result<Response> Client::call_once(const Request& req) {
  const Status conn = connect();
  if (!conn.ok()) return conn;
  const Status sent = write_frame(fd_, encode_request(req));
  if (!sent.ok()) {
    disconnect();
    return sent;
  }
  std::string payload;
  const FrameStatus fs = read_frame(fd_, payload, kDefaultMaxFrameBytes);
  if (fs != FrameStatus::kOk) {
    disconnect();
    return Status{StatusCode::kTruncated, Stage::kParse,
                  fs == FrameStatus::kClosed
                      ? "connection closed before the response frame"
                      : "torn response frame"};
  }
  auto doc = Json::parse(payload);
  if (!doc) return doc.status();
  return parse_response(*doc);
}

Result<Response> Client::call(const Request& req) {
  const auto sleep_ms = [&](double ms) {
    if (ms <= 0) return;
    if (opts_.sleep) {
      opts_.sleep(ms);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    }
  };
  Result<Response> last =
      Status::internal(Stage::kParse, "retry budget allowed no attempts");
  for (;;) {
    last = call_once(req);
    double hint = 0;
    if (last) {
      const Code code = last->code;
      if (code != Code::kOverloaded && code != Code::kDraining) return last;
      hint = last->retry_after_ms;  // server pushback: retry with its hint
    }
    const double delay =
        hint > 0 ? retry_.next_delay_ms(hint) : retry_.next_delay_ms();
    if (delay < 0) return last;  // policy exhausted; surface the last word
    sleep_ms(delay);
  }
}

}  // namespace ced::serve
