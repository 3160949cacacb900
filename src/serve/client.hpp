// LineClient: a deliberately dumb blocking client for the serve protocol —
// connect, send a line, read a line. It exists so the serve tests and
// `essns_cli serve --request` talk to the server through the same few dozen
// lines instead of ad-hoc socket loops.
#pragma once

#include <string>

namespace essns::serve {

class LineClient {
 public:
  /// Connect to host:port. Throws IoError on failure. `timeout_seconds`
  /// bounds every subsequent read (a hung server fails the caller instead
  /// of wedging it).
  LineClient(const std::string& host, int port, double timeout_seconds = 60.0);
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Send one request line (LF appended). Throws IoError on a broken pipe.
  void send_line(const std::string& line);

  /// Block until one full response line arrives (LF stripped). Throws
  /// IoError on timeout or EOF. Lines may arrive out of request order when
  /// requests are pipelined — match on the id=<name> token.
  std::string read_line();

  /// send_line + read_line — the common lockstep call.
  std::string request(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace essns::serve
