// Binary tensor (de)serialization for model checkpoints.
//
// Format (little-endian, as written by the host):
//   magic "CLPT"  u32 version  u32 rank  u64 dims[rank]  f32 data[numel]
//
// Readers are hardened against hostile input: header counts and shapes are
// bounds-checked before any allocation, truncation raises IoError, and a
// failed allocation surfaces as IoError rather than std::bad_alloc, so a
// corrupt checkpoint can never take the process down (see tests/
// checkpoint_test.cpp for the fuzz harness).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "tensor/tensor.h"

namespace clpp {

/// Hard ceiling on elements a serialized tensor may declare (256 MiB of
/// f32), checked overflow-safely before allocating.
inline constexpr std::uint64_t kMaxTensorElements = 1ULL << 26;

/// Hard ceiling on a serialized string length (metadata / names / configs).
inline constexpr std::uint64_t kMaxStringBytes = 1ULL << 24;

/// Writes `t` to `out`; throws IoError on stream failure.
void write_tensor(std::ostream& out, const Tensor& t);

/// Reads a tensor; throws IoError / ParseError on truncated or bad data.
Tensor read_tensor(std::istream& in);

/// Writes a length-prefixed string (used by checkpoint metadata).
void write_string(std::ostream& out, const std::string& s);
std::string read_string(std::istream& in);

/// POD helpers. Floating-point values round-trip bit-exactly (raw IEEE-754
/// bytes), which the resume-determinism guarantee relies on.
void write_u64(std::ostream& out, std::uint64_t v);
std::uint64_t read_u64(std::istream& in);
void write_u32(std::ostream& out, std::uint32_t v);
void write_f32(std::ostream& out, float v);
float read_f32(std::istream& in);
void write_f64(std::ostream& out, double v);
double read_f64(std::istream& in);

}  // namespace clpp
