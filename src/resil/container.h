// Versioned, CRC32-checksummed checkpoint container.
//
// Layout (little-endian):
//
//   magic "CLPC"  u32 version  u32 crc32(payload)  u64 payload_size  payload
//
// The checksum turns silent corruption (torn writes that slipped past
// rename, bit rot, truncation) into a deterministic ParseError at load
// time instead of garbage tensors. Writes go through atomic_write_file and
// are retried on transient I/O failures; reads are retried on open/read
// failures but never on checksum or size mismatches (corruption does not
// heal on retry).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace clpp::resil {

/// Standard CRC-32 (polynomial 0xEDB88320, as in zlib/PNG).
std::uint32_t crc32(std::string_view data);

/// Atomically writes `payload` wrapped in a checksummed container.
/// Records `clpp.resil.ckpt_save_us` and counts `clpp.resil.ckpt_saves`.
void write_container(const std::string& path, std::string_view payload);

/// Reads and validates a container, returning the payload. Throws IoError
/// when the file cannot be opened/read, ParseError on bad magic, unknown
/// version, size mismatch (truncation or trailing bytes), or checksum
/// failure. Records `clpp.resil.ckpt_load_us` / `clpp.resil.ckpt_loads`.
std::string read_container(const std::string& path);

}  // namespace clpp::resil
