//===-- net/Client.cpp - Blocking protocol client ----------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

using namespace mahjong;
using namespace mahjong::net;

Client::~Client() { close(); }

void Client::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  RdBuf.clear();
}

bool Client::connect(const std::string &Host, uint16_t Port,
                     std::string &Err) {
  close();
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    Err = "cannot parse address '" + Host + "'";
    return false;
  }
  Fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "connect " + Host + ":" + std::to_string(Port) + ": " +
          std::strerror(errno);
    close();
    return false;
  }
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  applyRecvTimeout();
  return true;
}

void Client::setRecvTimeout(std::chrono::milliseconds Timeout) {
  RecvTimeout = Timeout;
  if (Fd >= 0)
    applyRecvTimeout();
}

void Client::applyRecvTimeout() {
  timeval Tv{};
  Tv.tv_sec = static_cast<time_t>(RecvTimeout.count() / 1000);
  Tv.tv_usec = static_cast<suseconds_t>(RecvTimeout.count() % 1000 * 1000);
  setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}

bool Client::query(std::string_view Text, Response &R, std::string &Err) {
  return roundTrip(MsgType::Query, Text, R, Err);
}

bool Client::swap(std::string_view Path, Response &R, std::string &Err) {
  return roundTrip(MsgType::Swap, Path, R, Err);
}

bool Client::ping(Response &R, std::string &Err) {
  return roundTrip(MsgType::Ping, {}, R, Err);
}

bool Client::roundTrip(MsgType Type, std::string_view Payload, Response &R,
                       std::string &Err) {
  if (Fd < 0) {
    Err = "not connected";
    return false;
  }
  std::string Out;
  appendFrame(Out, Type, Payload);
  size_t Sent = 0;
  while (Sent < Out.size()) {
    ssize_t N = send(Fd, Out.data() + Sent, Out.size() - Sent, MSG_NOSIGNAL);
    if (N > 0) {
      Sent += static_cast<size_t>(N);
      continue;
    }
    if (errno == EINTR)
      continue;
    Err = std::string("send: ") + std::strerror(errno);
    close();
    return false;
  }
  Frame F;
  if (!readFrame(F, Err))
    return false;
  if (F.Type != MsgType::RespOk && F.Type != MsgType::RespError) {
    Err = "unexpected frame type from server";
    close();
    return false;
  }
  if (!decodeResponsePayload(F.Payload, F.Type == MsgType::RespOk, R)) {
    Err = "truncated response payload from server";
    close();
    return false;
  }
  return true;
}

bool Client::readFrame(Frame &F, std::string &Err) {
  char Buf[64 * 1024];
  while (true) {
    size_t Consumed = 0;
    DecodeStatus S = decodeFrame(RdBuf, Consumed, F, Err);
    if (S == DecodeStatus::Ok) {
      RdBuf.erase(0, Consumed);
      return true;
    }
    if (S == DecodeStatus::Corrupt) {
      close();
      return false;
    }
    ssize_t N = recv(Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      RdBuf.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      Err = "timed out waiting for the server (no reply within " +
            std::to_string(RecvTimeout.count()) + " ms)";
    else
      Err = N == 0 ? "server closed the connection"
                   : std::string("recv: ") + std::strerror(errno);
    close();
    return false;
  }
}
