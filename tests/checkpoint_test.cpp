// Hostile-input hardening for nn checkpoints and tensor I/O: restore error
// paths, implausible headers, truncation, oversized strings, allocation
// failures, and fuzzing with random and bit-flipped files. The invariant
// under fuzz: loading never crashes, never UBs, never throws anything but
// a clpp::Error subclass — and a bounded one (no attacker-sized allocs).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "nn/checkpoint.h"
#include "nn/layer.h"
#include "resil/container.h"
#include "resil/fault.h"
#include "support/rng.h"
#include "tensor/io.h"

namespace clpp {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path("checkpoint_test_tmp") / info->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    resil::clear_fault_plan();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << p;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  static void spew(const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(static_cast<bool>(out)) << p;
  }

  fs::path dir_;
};

Tensor filled(std::vector<std::size_t> shape, float start) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t.data()[i] = start + static_cast<float>(i);
  return t;
}

// ------------------------------------------------------ save/load basics

TEST_F(CheckpointTest, SaveLoadRoundTripsThroughContainer) {
  nn::Parameter w("w", filled({2, 3}, 1.0f));
  nn::Parameter b("b", filled({3}, -2.0f));
  const std::vector<nn::Parameter*> params = {&w, &b};
  const std::string target = path("model.ckpt");
  nn::save_checkpoint(target, params);
  EXPECT_EQ(slurp(target).substr(0, 4), "CLPC");

  const auto loaded = nn::load_checkpoint(target);
  ASSERT_EQ(loaded.size(), 2u);
  ASSERT_EQ(loaded.count("w"), 1u);
  EXPECT_EQ(loaded.at("w").shape(), w.value.shape());
  EXPECT_EQ(std::memcmp(loaded.at("w").data(), w.value.data(),
                        w.value.numel() * sizeof(float)),
            0);
}

TEST_F(CheckpointTest, UncontaineredCheckpointIsRejected) {
  // A raw entry stream (no container magic, no checksum) is not loadable.
  std::ofstream out(path("raw.ckpt"), std::ios::binary);
  write_u64(out, 1);
  write_string(out, "w");
  write_tensor(out, filled({2, 2}, 5.0f));
  out.close();

  EXPECT_THROW(nn::load_checkpoint(path("raw.ckpt")), ParseError);
}

TEST_F(CheckpointTest, MissingFileIsIoError) {
  EXPECT_THROW(nn::load_checkpoint(path("absent.ckpt")), IoError);
}

TEST_F(CheckpointTest, EmptyFileIsCleanError) {
  spew(path("empty.ckpt"), "");
  EXPECT_THROW(nn::load_checkpoint(path("empty.ckpt")), Error);
}

// -------------------------------------------------- restore_parameters

TEST_F(CheckpointTest, StrictRestoreThrowsOnMissingParameter) {
  nn::Parameter w("w", filled({2}, 0.0f));
  nn::Parameter extra("extra", filled({2}, 0.0f));
  std::map<std::string, Tensor> checkpoint;
  checkpoint.emplace("w", filled({2}, 9.0f));
  EXPECT_THROW(
      nn::restore_parameters(checkpoint, {&w, &extra}, /*strict=*/true),
      ParseError);
}

TEST_F(CheckpointTest, StrictRestoreThrowsOnShapeMismatch) {
  nn::Parameter w("w", filled({2, 3}, 0.0f));
  std::map<std::string, Tensor> checkpoint;
  checkpoint.emplace("w", filled({3, 2}, 9.0f));
  EXPECT_THROW(nn::restore_parameters(checkpoint, {&w}, /*strict=*/true),
               ParseError);
}

TEST_F(CheckpointTest, NonStrictRestoreCountsPartialTransfer) {
  nn::Parameter matched("encoder.w", filled({2}, 0.0f));
  nn::Parameter wrong_shape("encoder.b", filled({4}, 0.0f));
  nn::Parameter absent("head.w", filled({2}, 0.0f));
  std::map<std::string, Tensor> checkpoint;
  checkpoint.emplace("encoder.w", filled({2}, 7.0f));
  checkpoint.emplace("encoder.b", filled({5}, 7.0f));  // shape mismatch
  const std::size_t restored = nn::restore_parameters(
      checkpoint, {&matched, &wrong_shape, &absent}, /*strict=*/false);
  EXPECT_EQ(restored, 1u);
  EXPECT_EQ(matched.value.data()[0], 7.0f);   // transferred
  EXPECT_EQ(wrong_shape.value.data()[0], 0.0f);  // kept init
  EXPECT_EQ(absent.value.data()[0], 0.0f);       // kept init
}

// ------------------------------------------------- hostile input headers

std::string containerized(const std::string& payload, const std::string& target) {
  resil::write_container(target, payload);
  return target;
}

TEST_F(CheckpointTest, ImplausibleEntryCountRejectedBeforeAllocating) {
  std::ostringstream payload;
  write_u64(payload, 1'000'000'000'000ULL);
  EXPECT_THROW(
      nn::load_checkpoint(containerized(payload.str(), path("count.ckpt"))),
      ParseError);
}

TEST_F(CheckpointTest, HugeTensorDimensionRejected) {
  std::istringstream in = [] {
    std::ostringstream raw;
    raw.write("CLPT", 4);
    write_u32(raw, 1);  // version
    write_u32(raw, 1);  // rank
    write_u64(raw, 1ULL << 40);
    return std::istringstream(raw.str());
  }();
  EXPECT_THROW(read_tensor(in), ParseError);
}

TEST_F(CheckpointTest, OverflowingDimensionProductRejected) {
  // Each dim is individually under the cap, but the product overflows it —
  // a classic multiplication-overflow allocation attack.
  std::istringstream in = [] {
    std::ostringstream raw;
    raw.write("CLPT", 4);
    write_u32(raw, 1);  // version
    write_u32(raw, 3);  // rank
    write_u64(raw, 1ULL << 25);
    write_u64(raw, 1ULL << 25);
    write_u64(raw, 1ULL << 25);
    return std::istringstream(raw.str());
  }();
  EXPECT_THROW(read_tensor(in), ParseError);
}

TEST_F(CheckpointTest, ExcessiveRankRejected) {
  std::istringstream in = [] {
    std::ostringstream raw;
    raw.write("CLPT", 4);
    write_u32(raw, 1);
    write_u32(raw, 200);  // rank
    return std::istringstream(raw.str());
  }();
  EXPECT_THROW(read_tensor(in), ParseError);
}

TEST_F(CheckpointTest, TruncatedTensorPayloadIsCleanError) {
  std::ostringstream raw;
  write_tensor(raw, filled({4, 4}, 1.0f));
  const std::string full = raw.str();
  for (const std::size_t keep : {full.size() / 4, full.size() / 2, full.size() - 1}) {
    std::istringstream in(full.substr(0, keep));
    EXPECT_THROW(read_tensor(in), Error) << "kept " << keep;
  }
}

TEST_F(CheckpointTest, OversizedStringLengthRejectedBeforeAllocating) {
  std::ostringstream raw;
  write_u64(raw, kMaxStringBytes + 1);
  std::istringstream in(raw.str());
  EXPECT_THROW(read_string(in), ParseError);
}

TEST_F(CheckpointTest, AllocationFailureSurfacesAsIoError) {
  nn::Parameter w("w", filled({8, 8}, 1.0f));
  const std::string target = path("alloc.ckpt");
  nn::save_checkpoint(target, {&w});
  resil::set_fault_plan(resil::FaultPlan::parse("tensor.alloc:1"));
  // Injected bad_alloc inside the guarded tensor allocation must come out
  // as a clpp error, never escape as std::bad_alloc.
  EXPECT_THROW(nn::load_checkpoint(target), IoError);
  resil::clear_fault_plan();
  EXPECT_NO_THROW(nn::load_checkpoint(target));
}

TEST_F(CheckpointTest, TensorWriteFaultAbortsSaveWithoutCreatingFile) {
  nn::Parameter w("w", filled({2}, 1.0f));
  const std::string target = path("failed_save.ckpt");
  resil::set_fault_plan(resil::FaultPlan::parse("tensor.write:1"));
  EXPECT_THROW(nn::save_checkpoint(target, {&w}), IoError);
  resil::clear_fault_plan();
  EXPECT_FALSE(fs::exists(target));
}

// ----------------------------------------------------------------- fuzz

TEST_F(CheckpointTest, FuzzRandomFilesNeverEscapeTheErrorHierarchy) {
  Rng rng(0xF022);
  const std::string target = path("fuzz.ckpt");
  for (int iter = 0; iter < 150; ++iter) {
    std::string bytes(rng.index(600), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.index(256));
    // Bias some iterations toward the parsers' own magics so the fuzz
    // reaches past the first header check.
    if (iter % 5 == 1 && bytes.size() >= 4) std::memcpy(bytes.data(), "CLPC", 4);
    if (iter % 5 == 3 && bytes.size() >= 12) {
      std::uint64_t count = 1;
      std::memcpy(bytes.data(), &count, sizeof count);
    }
    spew(target, bytes);
    try {
      const auto loaded = nn::load_checkpoint(target);
      EXPECT_LE(loaded.size(), 1'000'000u);  // survived: caps still held
    } catch (const Error&) {
      // Expected: IoError or ParseError, both clpp::Error.
    } catch (...) {
      FAIL() << "non-clpp exception escaped on fuzz iteration " << iter;
    }
  }
}

TEST_F(CheckpointTest, FuzzBitFlippedCheckpointsAlwaysRejected) {
  nn::Parameter w("encoder.w", filled({6, 5}, 0.25f));
  nn::Parameter b("encoder.b", filled({5}, -1.0f));
  const std::string target = path("flip.ckpt");
  nn::save_checkpoint(target, {&w, &b});
  const std::string good = slurp(target);

  Rng rng(0xB17F11B);
  for (int iter = 0; iter < 300; ++iter) {
    std::string bad = good;
    const std::size_t byte = rng.index(bad.size());
    bad[byte] = static_cast<char>(bad[byte] ^ (1u << rng.index(8)));
    spew(target, bad);
    // CRC32 catches every single-bit error, so a flipped container must be
    // rejected deterministically — garbage tensors never load.
    EXPECT_THROW(nn::load_checkpoint(target), ParseError) << "byte " << byte;
  }
}

TEST_F(CheckpointTest, FuzzTruncatedCheckpointsAlwaysRejected) {
  nn::Parameter w("w", filled({3, 7}, 2.0f));
  const std::string target = path("trunc.ckpt");
  nn::save_checkpoint(target, {&w});
  const std::string good = slurp(target);

  Rng rng(0x7254);
  for (int iter = 0; iter < 60; ++iter) {
    spew(target, good.substr(0, rng.index(good.size())));
    EXPECT_THROW(nn::load_checkpoint(target), Error);
  }
}

}  // namespace
}  // namespace clpp
