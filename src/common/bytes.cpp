#include "common/bytes.h"

#include "common/check.h"

namespace themis {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(ByteSpan data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

std::string to_hex(const Hash32& h) { return to_hex(ByteSpan(h.data(), h.size())); }

std::string short_hex(const Hash32& h) { return to_hex(ByteSpan(h.data(), 8)); }

Bytes from_hex(std::string_view hex) {
  expects(hex.size() % 2 == 0, "hex string must have even length");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    expects(hi >= 0 && lo >= 0, "invalid hex character");
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

Hash32 hash_from_hex(std::string_view hex) {
  expects(hex.size() == 64, "Hash32 needs exactly 64 hex characters");
  const Bytes raw = from_hex(hex);
  Hash32 h{};
  std::copy(raw.begin(), raw.end(), h.begin());
  return h;
}

bool equal_ct(ByteSpan a, ByteSpan b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

Bytes bytes_of(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

}  // namespace themis
