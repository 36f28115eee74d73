//===-- net/Client.h - Blocking protocol client ---------------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking client for the binary net::Protocol: connect, send a
/// request frame, read exactly one response frame. One instance is one
/// connection and is not thread-safe — the traffic driver gives each
/// client thread its own instance, which also matches how per-connection
/// backpressure is meant to be exercised.
///
/// Every read waits at most the receive timeout (SO_RCVTIMEO; 120 s by
/// default) for the server's next bytes. A server that stops answering
/// then fails the call with "timed out waiting for the server" and
/// closes the connection, instead of hanging the caller forever.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_NET_CLIENT_H
#define MAHJONG_NET_CLIENT_H

#include "net/Protocol.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace mahjong::net {

class Client {
public:
  /// The default receive timeout. Generous: a swap of a large snapshot
  /// is answered only once it is decoded and published.
  static constexpr std::chrono::milliseconds DefaultRecvTimeout =
      std::chrono::seconds(120);

  Client() = default;
  ~Client();

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects (blocking) with TCP_NODELAY. \returns false with a
  /// diagnostic in \p Err.
  bool connect(const std::string &Host, uint16_t Port, std::string &Err);
  void close();
  bool connected() const { return Fd >= 0; }

  /// Sets the receive timeout for this connection and any later one; zero
  /// waits forever.
  void setRecvTimeout(std::chrono::milliseconds Timeout);

  /// One query round trip. \returns false with \p Err set on transport
  /// or framing failure; a query the *server* rejected returns true with
  /// R.Ok == false and the diagnostic in R.Text.
  bool query(std::string_view Text, Response &R, std::string &Err);

  /// Asks the server to hot-swap to the .mjsnap at \p Path; returns once
  /// the swap resolved (R carries the post-swap epoch/digest on success).
  bool swap(std::string_view Path, Response &R, std::string &Err);

  /// Liveness probe; R carries the current epoch/digest.
  bool ping(Response &R, std::string &Err);

private:
  bool roundTrip(MsgType Type, std::string_view Payload, Response &R,
                 std::string &Err);
  bool readFrame(Frame &F, std::string &Err);

  void applyRecvTimeout();

  int Fd = -1;
  std::string RdBuf;
  std::chrono::milliseconds RecvTimeout = DefaultRecvTimeout;
};

} // namespace mahjong::net

#endif // MAHJONG_NET_CLIENT_H
