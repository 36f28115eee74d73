//===-- bench/e2e/src/HostProbe.cpp - Host memory-speed probe --------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// A fixed memory workload that calls nothing in the library: a dependent
// walk through a 32 MiB table and copies between two 32 MiB buffers. On a
// shared host the time of a pass drifts by a fifth or more over minutes,
// with the memory speed the neighbours leave, and this probe's time drifts
// with it (README.md, Repeatability). It runs in a child process, so its
// buffers stay out of the benchmark's peak RSS.
//
//===----------------------------------------------------------------------===//

#include "E2E.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

using namespace e2e;

namespace {

constexpr size_t WalkWords = size_t(8) << 20; // a power of two
constexpr unsigned WalkSteps = 700000;
constexpr size_t CopyBytes = size_t(32) << 20;
constexpr unsigned Copies = 8;

/// The probe itself, in the child: set-up, then the timed walk and copies.
double probeBody() {
  // Each entry holds the next index of a full-period LCG modulo WalkWords,
  // so every load depends on the one before and lands far from it.
  std::vector<uint32_t> Next(WalkWords);
  for (uint64_t I = 0; I < WalkWords; ++I)
    Next[I] = static_cast<uint32_t>(
        (I * 0x5851F42D4C957F2DULL + 0x14057B7EF767814FULL) & (WalkWords - 1));
  std::vector<char> A(CopyBytes, 1), B(CopyBytes, 2);

  Clock::time_point T0 = Clock::now();
  uint32_t P = 0;
  for (unsigned I = 0; I < WalkSteps; ++I)
    P = Next[P];
  for (unsigned I = 0; I < Copies; ++I)
    std::memcpy(I % 2 ? A.data() : B.data(), I % 2 ? B.data() : A.data(),
                CopyBytes);
  double S = secondsSince(T0);

  volatile char Sink = static_cast<char>(P) ^ A[P % CopyBytes];
  (void)Sink;
  return S;
}

} // namespace

double e2e::hostProbeSeconds() {
  int Fds[2];
  if (pipe(Fds) != 0)
    return 0;
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    return 0;
  }
  if (Pid == 0) {
    // _exit, not exit: the parent's buffered output must not be flushed
    // twice.
    close(Fds[0]);
    double S = probeBody();
    bool Ok = write(Fds[1], &S, sizeof(S)) == sizeof(S);
    _exit(Ok ? 0 : 1);
  }
  close(Fds[1]);
  double S = 0;
  ssize_t Got;
  do
    Got = read(Fds[0], &S, sizeof(S));
  while (Got < 0 && errno == EINTR);
  close(Fds[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  bool Ok = Got == sizeof(S) && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  return Ok ? S : 0;
}
