#include "tensor/io.h"

#include <cstring>
#include <istream>
#include <new>
#include <ostream>

#include "resil/fault.h"

namespace clpp {

namespace {
constexpr char kMagic[4] = {'C', 'L', 'P', 'T'};
constexpr std::uint32_t kVersion = 1;

void write_raw(std::ostream& out, const void* p, std::size_t n) {
  out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  if (!out) throw IoError("tensor write failed");
}

void read_raw(std::istream& in, void* p, std::size_t n) {
  in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in.gcount()) != n)
    throw IoError("tensor read failed (truncated stream)");
}
}  // namespace

void write_u64(std::ostream& out, std::uint64_t v) { write_raw(out, &v, sizeof v); }

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  read_raw(in, &v, sizeof v);
  return v;
}

void write_u32(std::ostream& out, std::uint32_t v) { write_raw(out, &v, sizeof v); }

void write_f32(std::ostream& out, float v) { write_raw(out, &v, sizeof v); }

float read_f32(std::istream& in) {
  float v = 0;
  read_raw(in, &v, sizeof v);
  return v;
}

void write_f64(std::ostream& out, double v) { write_raw(out, &v, sizeof v); }

double read_f64(std::istream& in) {
  double v = 0;
  read_raw(in, &v, sizeof v);
  return v;
}

void write_string(std::ostream& out, const std::string& s) {
  if (s.size() > kMaxStringBytes) throw IoError("string too long to serialize");
  write_u64(out, s.size());
  if (!s.empty()) write_raw(out, s.data(), s.size());
}

std::string read_string(std::istream& in) {
  const std::uint64_t n = read_u64(in);
  if (n > kMaxStringBytes)
    throw ParseError("checkpoint string length implausible (" + std::to_string(n) +
                     " bytes)");
  std::string s(n, '\0');
  if (n) read_raw(in, s.data(), n);
  return s;
}

void write_tensor(std::ostream& out, const Tensor& t) {
  resil::fault_point("tensor.write");
  write_raw(out, kMagic, sizeof kMagic);
  std::uint32_t version = kVersion;
  write_raw(out, &version, sizeof version);
  std::uint32_t rank = static_cast<std::uint32_t>(t.rank());
  write_raw(out, &rank, sizeof rank);
  for (std::size_t d : t.shape()) write_u64(out, d);
  if (t.numel()) write_raw(out, t.data(), t.numel() * sizeof(float));
}

Tensor read_tensor(std::istream& in) {
  resil::fault_point("tensor.read");
  char magic[4];
  read_raw(in, magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw ParseError("bad tensor magic (not a CLPP checkpoint)");
  std::uint32_t version = 0;
  read_raw(in, &version, sizeof version);
  if (version != kVersion) throw ParseError("unsupported tensor version");
  std::uint32_t rank = 0;
  read_raw(in, &rank, sizeof rank);
  if (rank > 3) throw ParseError("tensor rank > 3 in checkpoint");
  std::vector<std::size_t> shape(rank);
  // Bound every dimension and the overflow-safe element product *before*
  // allocating anything, so a hostile header cannot trigger a huge or
  // overflowed allocation.
  std::uint64_t numel = 1;
  for (auto& d : shape) {
    const std::uint64_t dim = read_u64(in);
    if (dim == 0 || dim > kMaxTensorElements)
      throw ParseError("implausible tensor dimension (" + std::to_string(dim) + ")");
    if (numel > kMaxTensorElements / dim)
      throw ParseError("tensor element count overflows the checkpoint limit");
    numel *= dim;
    d = static_cast<std::size_t>(dim);
  }
  try {
    resil::alloc_fault_point("tensor.alloc");
    Tensor t(shape.empty() ? std::vector<std::size_t>{1} : shape);
    if (shape.empty()) t = Tensor();
    if (t.numel()) read_raw(in, t.data(), t.numel() * sizeof(float));
    return t;
  } catch (const std::bad_alloc&) {
    throw IoError("out of memory reading checkpoint tensor (" +
                  std::to_string(numel) + " elements)");
  }
}

}  // namespace clpp
