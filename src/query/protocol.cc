#include "query/protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

namespace wlansim {
namespace {

// Payload bytes ReadFrame reads (and commits memory for) ahead of what the
// peer has sent.
constexpr size_t kReadChunkBytes = 64u << 10;

// Reads exactly n bytes. Returns false only on end-of-stream before the
// first byte when eof_ok; throws on errors and mid-buffer EOF.
bool ReadExact(int fd, char* buffer, size_t n, bool eof_ok) {
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, buffer + done, n - done);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("socket read failed: ") + std::strerror(errno));
    }
    if (got == 0) {
      if (done == 0 && eof_ok) {
        return false;
      }
      throw std::runtime_error("socket closed mid-frame");
    }
    done += static_cast<size_t>(got);
  }
  return true;
}

// MSG_NOSIGNAL: a peer that hung up must surface as EPIPE (an exception the
// per-connection loop catches), not as a SIGPIPE that kills the process.
void WriteExact(int fd, const char* buffer, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t put = ::send(fd, buffer + done, n - done, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("socket write failed: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(put);
  }
}

}  // namespace

bool ReadFrame(int fd, std::string* payload) {
  char prefix[4];
  if (!ReadExact(fd, prefix, sizeof(prefix), /*eof_ok=*/true)) {
    return false;
  }
  const uint32_t length = static_cast<uint32_t>(static_cast<uint8_t>(prefix[0])) |
                          static_cast<uint32_t>(static_cast<uint8_t>(prefix[1])) << 8 |
                          static_cast<uint32_t>(static_cast<uint8_t>(prefix[2])) << 16 |
                          static_cast<uint32_t>(static_cast<uint8_t>(prefix[3])) << 24;
  if (length > kMaxFrameBytes) {
    throw std::runtime_error("frame length " + std::to_string(length) + " exceeds the " +
                             std::to_string(kMaxFrameBytes) + "-byte bound");
  }
  // The buffer grows geometrically as payload bytes arrive, read at most one
  // chunk at a time, so a bare length prefix pins one chunk, not `length`
  // bytes. A frame of up to one chunk (every query) takes a single resize.
  payload->clear();
  size_t done = 0;
  while (done < length) {
    const size_t chunk = std::min<size_t>(kReadChunkBytes, length - done);
    if (payload->size() < done + chunk) {
      payload->resize(std::min<size_t>(length, std::max(done + chunk, 2 * payload->size())));
    }
    ReadExact(fd, payload->data() + done, chunk, /*eof_ok=*/false);
    done += chunk;
  }
  return true;
}

void WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::runtime_error("frame payload exceeds the " + std::to_string(kMaxFrameBytes) +
                             "-byte bound");
  }
  const uint32_t length = static_cast<uint32_t>(payload.size());
  const char prefix[4] = {
      static_cast<char>(length & 0xff),
      static_cast<char>((length >> 8) & 0xff),
      static_cast<char>((length >> 16) & 0xff),
      static_cast<char>((length >> 24) & 0xff),
  };
  WriteExact(fd, prefix, sizeof(prefix));
  WriteExact(fd, payload.data(), payload.size());
}

std::string EncodeResponse(uint8_t status, const std::string& body) {
  std::string payload;
  payload.reserve(body.size() + 1);
  payload.push_back(static_cast<char>(status));
  payload += body;
  return payload;
}

uint8_t DecodeResponse(const std::string& payload, std::string* body) {
  if (payload.empty()) {
    throw std::runtime_error("empty response payload");
  }
  const uint8_t status = static_cast<uint8_t>(payload.front());
  if (status != kStatusOk && status != kStatusError) {
    throw std::runtime_error("unknown response status " + std::to_string(status));
  }
  body->assign(payload, 1, payload.size() - 1);
  return status;
}

}  // namespace wlansim
