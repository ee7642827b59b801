#include "resil/container.h"

#include <array>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "resil/atomic_file.h"
#include "resil/fault.h"
#include "resil/retry.h"
#include "support/error.h"
#include "support/stopwatch.h"

namespace clpp::resil {

namespace {

constexpr char kMagic[4] = {'C', 'L', 'P', 'C'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

void put_u32(char* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }
void put_u64(char* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data)
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void write_container(const std::string& path, std::string_view payload) {
  const Stopwatch clock;
  char header[kHeaderSize];
  std::memcpy(header, kMagic, sizeof kMagic);
  put_u32(header + 4, kVersion);
  put_u32(header + 8, crc32(payload));
  put_u64(header + 12, static_cast<std::uint64_t>(payload.size()));
  with_retry("container.write", [&] {
    atomic_write_file(path, [&](std::ostream& out) {
      out.write(header, kHeaderSize);
      out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    });
  });
  obs::metrics().histogram("clpp.resil.ckpt_save_us").record(clock.seconds() * 1e6);
  obs::metrics().counter("clpp.resil.ckpt_saves").add(1);
}

std::string read_container(const std::string& path) {
  const Stopwatch clock;
  std::string bytes = with_retry("container.read", [&] {
    fault_point("container.open");
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open checkpoint container: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) throw IoError("read failed for checkpoint container: " + path);
    return std::move(buffer).str();
  });
  if (bytes.size() < kHeaderSize)
    throw ParseError("truncated checkpoint container header: " + path);
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    throw ParseError("not a CLPP checkpoint container: " + path);
  const std::uint32_t version = get_u32(bytes.data() + 4);
  if (version != kVersion)
    throw ParseError("unsupported checkpoint container version " +
                     std::to_string(version) + ": " + path);
  const std::uint32_t stored_crc = get_u32(bytes.data() + 8);
  const std::uint64_t payload_size = get_u64(bytes.data() + 12);
  if (payload_size != bytes.size() - kHeaderSize)
    throw ParseError("checkpoint container size mismatch (truncated or trailing "
                     "bytes): " + path);
  const std::string_view payload{bytes.data() + kHeaderSize,
                                 static_cast<std::size_t>(payload_size)};
  if (crc32(payload) != stored_crc)
    throw ParseError("checkpoint container checksum mismatch (corrupt file): " + path);
  std::string out{payload};
  obs::metrics().histogram("clpp.resil.ckpt_load_us").record(clock.seconds() * 1e6);
  obs::metrics().counter("clpp.resil.ckpt_loads").add(1);
  return out;
}

}  // namespace clpp::resil
