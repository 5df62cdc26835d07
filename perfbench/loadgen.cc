#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>

#include "common/random.h"

namespace perfbench {

namespace {

bool StartsWithNoCase(const std::string& s, size_t pos, const char* prefix) {
  for (size_t i = 0; prefix[i] != '\0'; ++i) {
    if (pos + i >= s.size()) return false;
    if (std::tolower(static_cast<unsigned char>(s[pos + i])) != prefix[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string UrlEncode(const std::string& s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else if (c == ' ') {
      out += '+';
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

std::vector<double> PoissonArrivals(double rate_per_s, double duration_s,
                                    uint64_t seed) {
  wikisearch::Rng rng(seed);
  std::vector<double> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

std::vector<double> CountedArrivals(size_t n, double duration_s,
                                    uint64_t seed) {
  wikisearch::Rng rng(seed);
  std::vector<double> out(n);
  for (double& t : out) t = rng.UniformDouble() * duration_s;
  std::sort(out.begin(), out.end());
  return out;
}

void PinThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

LoadGen::LoadGen(uint16_t port, int connections, std::vector<int> cpus)
    : port_(port),
      conns_(static_cast<size_t>(connections)),
      cpus_(std::move(cpus)) {}

LoadGen::~LoadGen() {
  for (Conn& c : conns_) Close(&c);
}

bool LoadGen::Open(Conn* c) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  c->fd = fd;
  c->in.clear();
  return true;
}

void LoadGen::Close(Conn* c) {
  if (c->fd >= 0) ::close(c->fd);
  c->fd = -1;
  c->in.clear();
}

bool LoadGen::ParseResponse(Conn* c, int* status, std::string* body) {
  const size_t head_end = c->in.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  // "HTTP/1.1 200 OK"
  const size_t sp = c->in.find(' ');
  if (sp == std::string::npos || sp > head_end) {
    *status = 0;
    body->clear();
    return true;
  }
  *status = std::atoi(c->in.c_str() + sp + 1);
  size_t len = 0;
  for (size_t pos = c->in.find("\r\n"); pos < head_end;
       pos = c->in.find("\r\n", pos + 2)) {
    if (StartsWithNoCase(c->in, pos + 2, "content-length:")) {
      len = static_cast<size_t>(
          std::strtoull(c->in.c_str() + pos + 2 + 15, nullptr, 10));
    }
  }
  if (c->in.size() < head_end + 4 + len) return false;
  body->assign(c->in, head_end + 4, len);
  const bool close_after =
      c->in.substr(0, head_end).find("onnection: close") != std::string::npos;
  c->in.erase(0, head_end + 4 + len);
  if (close_after) Close(c);
  return true;
}

PhaseStats LoadGen::Run(const std::vector<Arrival>& schedule,
                        const WireFn& build, std::vector<Completion>* out,
                        double drain_s, size_t max_backlog) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // The default 50 us timer slack would make every wake-up for a due
  // request late by a variable amount comparable to a cached answer's
  // whole round trip.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const std::vector<int> restore = AllowedCpus();
  PinThread(cpus_);
  const size_t n = schedule.size();
  PhaseStats st;
  st.late_ms.reserve(n);
  std::deque<uint32_t> pending;
  bool end_recorded = false;
  size_t next = 0, completed = 0, skipped = 0;
  size_t rr = 0;  // round-robin cursor: keeps every connection warm

  // A connection the server closed while idle (idle reaping between
  // phases) is reopened before use instead of failing its next request.
  for (Conn& c : conns_) {
    if (c.fd < 0) continue;
    char b;
    const ssize_t r = ::recv(c.fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
    if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      Close(&c);
    }
  }

  auto finish = [&](Conn* c, int status, std::string body) {
    Completion done = std::move(c->done);
    done.done_s = now_s();
    done.status = status;
    done.body = std::move(body);
    c->busy = false;
    c->out.clear();
    out->push_back(std::move(done));
    ++completed;
  };
  auto fail_unsent = [&](uint32_t idx) {
    Completion done;
    done.arrival = idx;
    done.due_s = schedule[idx].due_s;
    done.sent_s = done.done_s = now_s();
    out->push_back(std::move(done));
    ++completed;
  };
  auto flush = [&](Conn* c) -> bool {
    while (c->out_off < c->out.size()) {
      const ssize_t w = ::send(c->fd, c->out.data() + c->out_off,
                               c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (w > 0) {
        c->out_off += static_cast<size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        return false;
      }
    }
    return true;
  };
  auto start = [&](Conn* c, uint32_t idx) {
    c->busy = true;
    c->done = Completion();
    c->done.arrival = idx;
    c->done.due_s = schedule[idx].due_s;
    c->out = build(schedule[idx], idx);
    c->out_off = 0;
    c->done.sent_s = now_s();
    if (c->fd < 0 && !Open(c)) {
      finish(c, 0, {});
      return;
    }
    if (!flush(c)) {
      Close(c);
      finish(c, 0, {});
    }
  };

  std::vector<pollfd> pfds;
  std::vector<Conn*> pconns;
  while (completed + skipped < n) {
    double t = now_s();
    while (next < n && schedule[next].due_s <= t) {
      if (st.aborted) {
        ++skipped;
        ++next;
        continue;
      }
      st.late_ms.push_back((t - schedule[next].due_s) * 1e3);
      pending.push_back(static_cast<uint32_t>(next));
      ++next;
    }
    while (!pending.empty()) {
      size_t pos = 0;
      while (pos < conns_.size() && conns_[(rr + pos) % conns_.size()].busy) {
        ++pos;
      }
      if (pos == conns_.size()) break;  // every connection busy
      Conn* c = &conns_[(rr + pos) % conns_.size()];
      rr = (rr + pos + 1) % conns_.size();
      start(c, pending.front());
      pending.pop_front();
    }
    const size_t backlog = pending.size();
    st.backlog_peak = std::max(st.backlog_peak, backlog);
    if (max_backlog > 0 && backlog > max_backlog && !st.aborted) {
      st.aborted = true;
      skipped += pending.size();
      pending.clear();
      end_recorded = true;
      st.backlog_at_end = backlog;
    }
    if (next == n && !end_recorded) {
      st.backlog_at_end = backlog;
      end_recorded = true;
    }
    if (completed + skipped >= n) break;
    const double last_due = n > 0 ? schedule[n - 1].due_s : 0.0;
    if (next == n && t > last_due + drain_s) {
      // Give up on whatever is left: each counts as a failed request.
      for (Conn& c : conns_) {
        if (!c.busy) continue;
        Close(&c);
        finish(&c, 0, {});
      }
      for (uint32_t idx : pending) fail_unsent(idx);
      pending.clear();
      break;
    }

    pfds.clear();
    pconns.clear();
    for (Conn& c : conns_) {
      if (!c.busy || c.fd < 0) continue;
      short ev = POLLIN;
      if (c.out_off < c.out.size()) ev |= POLLOUT;
      pfds.push_back(pollfd{c.fd, ev, 0});
      pconns.push_back(&c);
    }
    double wait_s = next < n ? schedule[next].due_s - now_s() : 0.05;
    wait_s = std::clamp(wait_s, 0.0, 0.05);
    timespec ts{static_cast<time_t>(wait_s),
                static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Conn* c = pconns[i];
      if ((pfds[i].revents & POLLOUT) && !flush(c)) {
        Close(c);
        finish(c, 0, {});
        continue;
      }
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      bool eof = false;
      while (true) {
        const ssize_t r = ::recv(c->fd, buf, sizeof(buf), 0);
        if (r > 0) {
          c->in.append(buf, static_cast<size_t>(r));
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) eof = true;
        break;
      }
      int status = 0;
      std::string body;
      if (ParseResponse(c, &status, &body)) {
        finish(c, status, std::move(body));
        if (eof) Close(c);
      } else if (eof) {
        Close(c);
        finish(c, 0, {});
      }
    }
  }
  PinThread(restore);
  return st;
}

}  // namespace perfbench
