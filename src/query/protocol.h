// The wlansim query wire protocol: length-prefixed frames over a local
// stream socket. A request frame's payload is the query text (one line of
// the engine grammar, no terminator). A response frame's payload is one
// status byte — kStatusOk or kStatusError — followed by the body: the
// query result on success, the error message on failure. One connection
// carries any number of request/response pairs in lockstep; either side
// closing the socket between pairs ends the conversation cleanly.
//
// Framing is a u32 little-endian payload length followed by the payload
// bytes, bounded by kMaxFrameBytes so a corrupt length cannot make a peer
// allocate unbounded memory. A reader's buffer follows the bytes that
// actually arrive, so a length prefix alone pins no more than a 64 KiB
// chunk.

#ifndef WLANSIM_QUERY_PROTOCOL_H_
#define WLANSIM_QUERY_PROTOCOL_H_

#include <cstdint>
#include <string>

namespace wlansim {

inline constexpr uint8_t kStatusOk = 0;
inline constexpr uint8_t kStatusError = 1;
inline constexpr uint32_t kMaxFrameBytes = 256u << 20;

// Reads one frame. Returns false on clean end-of-stream before any byte of
// the frame; throws std::runtime_error on a short read mid-frame, an I/O
// error, or an oversized length prefix.
bool ReadFrame(int fd, std::string* payload);

// Writes one frame, handling short writes. Throws std::runtime_error on an
// I/O error or an oversized payload.
void WriteFrame(int fd, const std::string& payload);

// Response payload helpers: status byte + body.
std::string EncodeResponse(uint8_t status, const std::string& body);
// Splits a response payload; returns the status byte. Throws on an empty
// payload or an unknown status value.
uint8_t DecodeResponse(const std::string& payload, std::string* body);

}  // namespace wlansim

#endif  // WLANSIM_QUERY_PROTOCOL_H_
