// The zaatar-serve wire envelope: one byte of message type ahead of an
// opaque payload, carried inside the same u32-length-prefixed frames the
// Transport layer already speaks. The envelope stays untemplated — field
// elements appear only inside kProve/kSetup payloads, which the typed
// BatchVerifier / client code encode and decode — so the daemon's I/O loop
// routes frames without knowing which field a connection is proving over.
//
// Conversation shape (client = prover, server = verifier):
//   C -> S  kHello   { field tag, Ψ id, tenant label }
//   S -> C  kSetup   { the cached per-Ψ SetupMessage bytes }      (or kError)
//   C -> S  kProve   { inputs, claimed outputs, ProofMessage }    (repeated)
//   S -> C  kVerdict { VerdictMessage bytes }                     (or kError)
//   C -> S  kStatsRequest {}
//   S -> C  kStatsReply   { JSON }
//   C -> S  kShutdown {}   — admin stop, acknowledged with kShutdown
//
// kError carries a StatusCode so rejection is typed end to end: a client
// seeing RESOURCE_EXHAUSTED backs off and resends the same frame; anything
// else is final for the connection.

#ifndef SRC_SERVE_MESSAGES_H_
#define SRC_SERVE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/serialize.h"
#include "src/util/status.h"

namespace zaatar {
namespace serve {

enum class MessageType : uint8_t {
  kHello = 1,
  kSetup = 2,
  kProve = 3,
  kVerdict = 4,
  kStatsRequest = 5,
  kStatsReply = 6,
  kError = 7,
  kShutdown = 8,
};

inline const char* MessageTypeName(MessageType t) {
  switch (t) {
    case MessageType::kHello:
      return "HELLO";
    case MessageType::kSetup:
      return "SETUP";
    case MessageType::kProve:
      return "PROVE";
    case MessageType::kVerdict:
      return "VERDICT";
    case MessageType::kStatsRequest:
      return "STATS_REQUEST";
    case MessageType::kStatsReply:
      return "STATS_REPLY";
    case MessageType::kError:
      return "ERROR";
    case MessageType::kShutdown:
      return "SHUTDOWN";
  }
  return "UNKNOWN";
}

// Length-prefixed string helper shared by the payload codecs below; the
// length is validated against the bytes actually remaining (GetLength), so
// a hostile prefix fails before any allocation.
inline StatusOr<std::string> GetString(ByteReader* r) {
  ZAATAR_ASSIGN_OR_RETURN(uint32_t len, r->GetLength(1));
  std::string s(len, '\0');
  ZAATAR_RETURN_IF_ERROR(
      r->GetBytes(reinterpret_cast<uint8_t*>(s.data()), len));
  return s;
}

// A decoded envelope: the type byte plus a view-free copy of the payload.
struct Envelope {
  MessageType type;
  std::vector<uint8_t> payload;
};

inline std::vector<uint8_t> EncodeEnvelope(MessageType type,
                                           const uint8_t* payload,
                                           size_t size) {
  std::vector<uint8_t> out;
  out.reserve(1 + size);
  out.push_back(static_cast<uint8_t>(type));
  out.insert(out.end(), payload, payload + size);
  return out;
}

inline std::vector<uint8_t> EncodeEnvelope(
    MessageType type, const std::vector<uint8_t>& payload = {}) {
  return EncodeEnvelope(type, payload.data(), payload.size());
}

inline StatusOr<Envelope> DecodeEnvelope(const std::vector<uint8_t>& frame) {
  if (frame.empty()) {
    return TruncatedError("empty serve frame");
  }
  const uint8_t raw = frame[0];
  if (raw < static_cast<uint8_t>(MessageType::kHello) ||
      raw > static_cast<uint8_t>(MessageType::kShutdown)) {
    return MalformedError("unknown serve message type " + std::to_string(raw));
  }
  Envelope env;
  env.type = static_cast<MessageType>(raw);
  env.payload.assign(frame.begin() + 1, frame.end());
  return env;
}

// ----- kHello -----

struct HelloMessage {
  uint8_t field_tag = 0;  // see app_registry.h (kFieldTagF128, ...)
  std::string psi;        // computation id, e.g. "lcs/8"
  std::string tenant;     // free-form client label for per-tenant stats

  std::vector<uint8_t> EncodePayload() const {
    ByteWriter w;
    w.PutU32(field_tag);
    w.PutU32(static_cast<uint32_t>(psi.size()));
    w.PutBytes(reinterpret_cast<const uint8_t*>(psi.data()), psi.size());
    w.PutU32(static_cast<uint32_t>(tenant.size()));
    w.PutBytes(reinterpret_cast<const uint8_t*>(tenant.data()), tenant.size());
    return w.Take();
  }

  static StatusOr<HelloMessage> DecodePayload(
      const std::vector<uint8_t>& payload) {
    ByteReader r(payload);
    HelloMessage msg;
    ZAATAR_ASSIGN_OR_RETURN(uint32_t tag, r.GetU32());
    if (tag > 0xFF) {
      return MalformedError("hello field tag out of range");
    }
    msg.field_tag = static_cast<uint8_t>(tag);
    ZAATAR_ASSIGN_OR_RETURN(msg.psi, GetString(&r));
    ZAATAR_ASSIGN_OR_RETURN(msg.tenant, GetString(&r));
    ZAATAR_RETURN_IF_ERROR(r.ExpectEnd());
    return msg;
  }
};

// ----- kError -----

struct ErrorMessage {
  StatusCode code = StatusCode::kMalformed;
  std::string message;

  std::vector<uint8_t> EncodePayload() const {
    ByteWriter w;
    w.PutU32(static_cast<uint32_t>(code));
    w.PutU32(static_cast<uint32_t>(message.size()));
    w.PutBytes(reinterpret_cast<const uint8_t*>(message.data()),
               message.size());
    return w.Take();
  }

  static StatusOr<ErrorMessage> DecodePayload(
      const std::vector<uint8_t>& payload) {
    ByteReader r(payload);
    ErrorMessage msg;
    ZAATAR_ASSIGN_OR_RETURN(uint32_t code, r.GetU32());
    if (code > static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
      return MalformedError("error frame carries unknown status code");
    }
    msg.code = static_cast<StatusCode>(code);
    ZAATAR_ASSIGN_OR_RETURN(msg.message, GetString(&r));
    ZAATAR_RETURN_IF_ERROR(r.ExpectEnd());
    return msg;
  }

  Status ToStatus() const { return Status(code, message); }
};

inline std::vector<uint8_t> EncodeErrorFrame(const Status& s) {
  ErrorMessage msg;
  msg.code = s.code();
  msg.message = s.message();
  return EncodeEnvelope(MessageType::kError, msg.EncodePayload());
}

}  // namespace serve
}  // namespace zaatar

#endif  // SRC_SERVE_MESSAGES_H_
