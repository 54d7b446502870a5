// The loopback pair the serve workload and the serve probes use: an
// in-process serve::Server on its own thread, and a minimal blocking
// NDJSON client (one connection; send a line, read a line). The client
// throws std::runtime_error on any socket failure, which the closed loop
// counts as a failed call.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "serve/server.hpp"

namespace perfbench {

/// Design-cache budget of every benchmark server. The serve workload's
/// warm designs fit easily; its cold design set is several times larger,
/// so cold loads evict.
constexpr std::size_t kCacheBytes = 512u << 10;

/// One server on its own thread, `workers` connection lanes; stopped and
/// joined on destruction, which must come after every client connection
/// to it has been closed.
class RunningServer {
 public:
  RunningServer(lcsf::obs::Registry* reg, std::size_t workers) {
    lcsf::serve::ServerOptions opt;
    opt.workers = workers;
    opt.cache_bytes = kCacheBytes;
    opt.registry = reg;
    server_ = std::make_unique<lcsf::serve::Server>(opt);
    server_->bind_and_listen();
    thread_ = std::thread([this] { server_->run(); });
  }
  ~RunningServer() {
    server_->request_stop();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  int port() const { return server_->port(); }
  lcsf::serve::DesignCache& cache() { return server_->cache(); }

 private:
  std::unique_ptr<lcsf::serve::Server> server_;
  std::thread thread_;
};

class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect() failed");
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string request(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, 0);
      if (n <= 0) throw std::runtime_error("send() failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string resp = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return resp;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
