// Robustness layer: the fault-injection corruption matrix for the TNN/TDS
// serializers (truncation at every byte, single bit-flips, duplicate /
// missing parameters, kill-mid-write simulation, v1 backward compatibility),
// the guarded hybrid rollout (forced-divergent propagator → PDE fallback),
// and trainer fault handling (non-finite loss → restore + LR backoff,
// checkpoint/resume).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/hybrid.hpp"
#include "core/metrics.hpp"
#include "core/pde_propagator.hpp"
#include "core/rollout_api.hpp"
#include "data/generator.hpp"
#include "fno/fno.hpp"
#include "fno/trainer.hpp"
#include "lbm/initializer.hpp"
#include "nn/dataloader.hpp"
#include "nn/linear.hpp"
#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/precision.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb {
namespace {

// --- byte-level helpers --------------------------------------------------

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

template <typename T>
void append_pod(std::string& bytes, T v) {
  bytes.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// Hand-rolled legacy TNN1 writer (the pre-CRC format) for backward-compat
/// and corruption-matrix tests. Entries are (name, shape, payload) triples.
struct V1Entry {
  std::string name;
  std::vector<std::int64_t> dims;
  std::vector<float> payload;
};

std::string make_tnn1(const std::vector<V1Entry>& entries) {
  std::string bytes = "TNN1";
  append_pod<std::uint32_t>(bytes, static_cast<std::uint32_t>(entries.size()));
  for (const V1Entry& e : entries) {
    append_pod<std::uint32_t>(bytes, static_cast<std::uint32_t>(e.name.size()));
    bytes += e.name;
    append_pod<std::uint32_t>(bytes, static_cast<std::uint32_t>(e.dims.size()));
    for (const std::int64_t d : e.dims) append_pod(bytes, d);
    bytes.append(reinterpret_cast<const char*>(e.payload.data()),
                 e.payload.size() * sizeof(float));
  }
  append_pod<std::uint32_t>(bytes, 0);  // empty metadata
  return bytes;
}

V1Entry entry_from(const nn::Parameter& p) {
  V1Entry e;
  e.name = p.name;
  e.dims.assign(p.value.shape().begin(), p.value.shape().end());
  e.payload.assign(p.value.data(), p.value.data() + p.value.size());
  return e;
}

// --- TNN checkpoint corruption matrix ------------------------------------

TEST(RobustSerialize, V2RoundTripAndMagic) {
  Rng rng(1);
  nn::Linear a(3, 4, rng), b(3, 4, rng);
  const std::string path = temp_path("robust_v2.tnn");
  const nn::Metadata meta{{"dt_tc", 0.01}, {"norm_mean", -1.5}};
  nn::save_parameters(path, a.parameters(), meta);

  const std::string bytes = read_bytes(path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "TNN2");

  nn::Metadata loaded;
  nn::load_parameters(path, b.parameters(), &loaded);
  for (index_t i = 0; i < a.weight().value.size(); ++i) {
    ASSERT_EQ(a.weight().value[i], b.weight().value[i]);
  }
  EXPECT_DOUBLE_EQ(loaded.at("dt_tc"), 0.01);
  EXPECT_DOUBLE_EQ(loaded.at("norm_mean"), -1.5);
  std::remove(path.c_str());
}

// --- TNN3 (dtype-tagged, optionally compressed) ---------------------------

TEST(RobustSerialize, V3Fp32RoundTripExactAndMagic) {
  Rng rng(50);
  nn::Linear a(3, 4, rng), b(3, 4, rng);
  const std::string path = temp_path("robust_v3_fp32.tnn");
  const nn::Metadata meta{{"dt_tc", 0.01}};
  nn::SaveOptions opts;  // fp32-tagged v3: payload bytes identical to v2's
  nn::save_parameters(path, a.parameters(), meta, opts);

  EXPECT_EQ(read_bytes(path).substr(0, 4), "TNN3");
  nn::Metadata loaded;
  nn::load_parameters(path, b.parameters(), &loaded);
  for (index_t i = 0; i < a.weight().value.size(); ++i) {
    ASSERT_EQ(a.weight().value[i], b.weight().value[i]);
  }
  EXPECT_DOUBLE_EQ(loaded.at("dt_tc"), 0.01);
  std::remove(path.c_str());
}

TEST(RobustSerialize, V3CompressedRoundTripIsQuantizedExactly) {
  // bf16 payloads load back as exactly the RNE-rounded values — the
  // quantization happens once at save time, not again at load time.
  Rng rng(51);
  nn::Linear a(3, 4, rng), b(3, 4, rng);
  const std::string path = temp_path("robust_v3_c.tnn");
  nn::SaveOptions opts;
  opts.precision = util::Precision::kBf16;
  nn::save_parameters(path, a.parameters(), {}, opts);
  EXPECT_EQ(read_bytes(path).substr(0, 4), "TNN3");
  nn::load_parameters(path, b.parameters());
  for (index_t i = 0; i < a.weight().value.size(); ++i) {
    const float x = a.weight().value[i];
    const float expected = util::bf16_to_float(util::float_to_bf16(x));
    ASSERT_EQ(expected, b.weight().value[i]) << "i=" << i;
    if (x != expected) {
      ASSERT_NE(x, b.weight().value[i]);  // quantization really happened
    }
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, V3FactorizedModelRoundTrip) {
  // A factorized FNO checkpoints through v3 like any parameter set — the
  // factor tensors are ordinary named parameters.
  fno::FnoConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 1;
  cfg.width = 4;
  cfg.n_layers = 2;
  cfg.n_modes = {4, 4};
  cfg.lifting_channels = 8;
  cfg.projection_channels = 8;
  cfg.spectral_kind = nn::SpectralKind::kFactorized;
  Rng rng_a(52), rng_b(53);
  fno::Fno a(cfg, rng_a), b(cfg, rng_b);
  const std::string path = temp_path("robust_v3_fact.tnn");
  nn::SaveOptions opts;
  opts.precision = util::Precision::kBf16;
  nn::save_parameters(path, a.parameters(), {}, opts);
  nn::load_parameters(path, b.parameters());
  const auto& fa =
      dynamic_cast<const nn::FactorizedSpectralConv&>(a.conv(0));
  const auto& fb =
      dynamic_cast<const nn::FactorizedSpectralConv&>(b.conv(0));
  for (std::size_t d = 0; d < 2; ++d) {
    const TensorF& va = fa.factor(d).value;
    const TensorF& vb = fb.factor(d).value;
    for (index_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(util::bf16_to_float(util::float_to_bf16(va[i])), vb[i]);
    }
  }
  std::remove(path.c_str());
}

/// Save `a` as a bf16 TNN3 file at `path`, overwrite the first parameter's
/// dtype byte with `tag`, and re-stamp the trailing CRC so the corruption
/// reaches the dtype check instead of tripping the checksum gate.
void write_v3_with_dtype(nn::Linear& a, const std::string& path,
                         std::uint8_t tag) {
  nn::SaveOptions opts;
  opts.precision = util::Precision::kBf16;
  nn::save_parameters(path, a.parameters(), {}, opts);
  std::string bytes = read_bytes(path);
  // The first dtype byte sits right after magic, count, name-length, name,
  // rank, and extents of the first parameter. Find it by reconstruction:
  // 4 (magic) + 4 (count) + 4 (name len) + name + 4 (rank) + 8*rank.
  const std::string& name = a.parameters()[0]->name;
  const std::size_t pos = 4 + 4 + 4 + name.size() + 4 + 8 * 2;
  ASSERT_LT(pos, bytes.size());
  bytes[pos] = static_cast<char>(tag);
  const std::uint32_t crc =
      util::crc32(bytes.data() + 4, bytes.size() - 4 - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  write_bytes(path, bytes);
}

TEST(RobustSerialize, V3UnknownDtypeRejected) {
  Rng rng(54);
  nn::Linear a(2, 2, rng);
  const std::string path = temp_path("robust_v3_dtype.tnn");
  write_v3_with_dtype(a, path, 7);  // not a known dtype tag
  nn::Linear b(2, 2, rng);
  EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  std::remove(path.c_str());
}

TEST(RobustSerialize, V3RetiredFp16DtypeRejectedTransactionally) {
  // Tag 2 once meant an IEEE binary16 payload; bf16 is the only 16-bit tier
  // now, so the tag is corrupt: the load is rejected with a reason, counted,
  // and leaves the model untouched.
  Rng rng(57);
  nn::Linear a(2, 2, rng), b(2, 2, rng);
  const std::string path = temp_path("robust_v3_fp16.tnn");
  write_v3_with_dtype(a, path, 2);
  const std::vector<float> before(
      b.weight().value.data(),
      b.weight().value.data() + b.weight().value.size());
  auto& rejected = obs::counter("robust/corrupt_rejected");
  const auto rejected0 = rejected.value();
  try {
    nn::load_parameters(path, b.parameters());
    ADD_FAILURE() << "a dtype-2 (fp16) payload was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown dtype"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rejected.value() - rejected0, 1);
  for (index_t i = 0; i < b.weight().value.size(); ++i) {
    ASSERT_EQ(b.weight().value[i], before[static_cast<std::size_t>(i)])
        << "failed load mutated the model";
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, SaveLeavesNoTmpFile) {
  Rng rng(2);
  nn::Linear a(2, 2, rng);
  const std::string path = temp_path("robust_notmp.tnn");
  nn::save_parameters(path, a.parameters());
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(util::AtomicFileWriter::tmp_path_for(path)));
  std::remove(path.c_str());
}

TEST(RobustSerialize, EveryTruncationRejected) {
  Rng rng(3);
  nn::Linear a(2, 3, rng), scratch(2, 3, rng);
  const std::string path = temp_path("robust_trunc.tnn");
  nn::save_parameters(path, a.parameters(), {{"k", 1.0}});
  const std::string good = read_bytes(path);

  // Truncation at *every* length — a superset of "every section boundary".
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_bytes(path, good.substr(0, len));
    EXPECT_THROW(nn::load_parameters(path, scratch.parameters()), CheckError)
        << "truncation to " << len << " of " << good.size()
        << " bytes was accepted";
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, EveryBitFlipRejected) {
  Rng rng(4);
  nn::Linear a(2, 3, rng), scratch(2, 3, rng);
  const std::string path = temp_path("robust_flip.tnn");
  nn::save_parameters(path, a.parameters(), {{"k", 2.0}});
  const std::string good = read_bytes(path);

  // Magic flips fail the magic check; everything else — header, payload,
  // metadata, and the checksum itself — is covered by the CRC.
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (const unsigned mask : {0x01u, 0x80u}) {
      std::string bad = good;
      bad[byte] = static_cast<char>(static_cast<unsigned char>(bad[byte]) ^
                                    mask);
      write_bytes(path, bad);
      EXPECT_THROW(nn::load_parameters(path, scratch.parameters()), CheckError)
          << "bit flip (mask 0x" << std::hex << mask << std::dec
          << ") at byte " << byte << " was accepted";
    }
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, V3EveryTruncationRejected) {
  // Same exhaustive matrix against a compressed v3 file: the 16-bit payload
  // and the dtype bytes shift every section boundary.
  Rng rng(55);
  nn::Linear a(2, 3, rng), scratch(2, 3, rng);
  const std::string path = temp_path("robust_trunc_v3.tnn");
  nn::SaveOptions opts;
  opts.precision = util::Precision::kBf16;
  nn::save_parameters(path, a.parameters(), {{"k", 1.0}}, opts);
  const std::string good = read_bytes(path);

  for (std::size_t len = 0; len < good.size(); ++len) {
    write_bytes(path, good.substr(0, len));
    EXPECT_THROW(nn::load_parameters(path, scratch.parameters()), CheckError)
        << "v3 truncation to " << len << " of " << good.size()
        << " bytes was accepted";
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, V3EveryBitFlipRejected) {
  Rng rng(56);
  nn::Linear a(2, 3, rng), scratch(2, 3, rng);
  const std::string path = temp_path("robust_flip_v3.tnn");
  nn::SaveOptions opts;
  opts.precision = util::Precision::kBf16;
  nn::save_parameters(path, a.parameters(), {{"k", 2.0}}, opts);
  const std::string good = read_bytes(path);

  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (const unsigned mask : {0x01u, 0x80u}) {
      std::string bad = good;
      bad[byte] = static_cast<char>(static_cast<unsigned char>(bad[byte]) ^
                                    mask);
      write_bytes(path, bad);
      EXPECT_THROW(nn::load_parameters(path, scratch.parameters()), CheckError)
          << "v3 bit flip (mask 0x" << std::hex << mask << std::dec
          << ") at byte " << byte << " was accepted";
    }
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, FailedLoadLeavesModelUntouched) {
  Rng rng(5);
  nn::Linear a(2, 3, rng), b(2, 3, rng);
  const std::string path = temp_path("robust_strong.tnn");
  nn::save_parameters(path, a.parameters());
  std::string bad = read_bytes(path);
  bad[bad.size() - 1] = static_cast<char>(
      static_cast<unsigned char>(bad[bad.size() - 1]) ^ 0x40u);
  write_bytes(path, bad);

  const std::vector<float> before(
      b.weight().value.data(),
      b.weight().value.data() + b.weight().value.size());
  EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  for (index_t i = 0; i < b.weight().value.size(); ++i) {
    ASSERT_EQ(b.weight().value[i], before[static_cast<std::size_t>(i)])
        << "failed load mutated the model";
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, V1BackwardCompatLoads) {
  Rng rng(6);
  nn::Linear a(3, 2, rng), b(3, 2, rng);
  std::vector<V1Entry> entries;
  for (const nn::Parameter* p : a.parameters()) {
    entries.push_back(entry_from(*p));
  }
  const std::string path = temp_path("robust_v1.tnn");
  write_bytes(path, make_tnn1(entries));

  nn::load_parameters(path, b.parameters());
  for (index_t i = 0; i < a.weight().value.size(); ++i) {
    ASSERT_EQ(a.weight().value[i], b.weight().value[i]);
  }
  for (index_t i = 0; i < a.bias().value.size(); ++i) {
    ASSERT_EQ(a.bias().value[i], b.bias().value[i]);
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, DuplicateEntryMaskingMissingParameterRejected) {
  // The original bug: a checkpoint holding one parameter twice and another
  // missing satisfied the old `matched == params.size()` completeness check
  // and silently served the missing parameter from its random init.
  Rng rng(7);
  nn::Linear a(3, 2, rng), b(3, 2, rng);
  const std::vector<nn::Parameter*> params = a.parameters();
  ASSERT_EQ(params.size(), 2u);
  const V1Entry weight = entry_from(*params[0]);
  const std::string path = temp_path("robust_dup.tnn");
  write_bytes(path, make_tnn1({weight, weight}));  // weight twice, no bias

  EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  std::remove(path.c_str());
}

TEST(RobustSerialize, MissingParameterRejected) {
  Rng rng(8);
  nn::Linear a(3, 2, rng), b(3, 2, rng);
  const std::vector<nn::Parameter*> params = a.parameters();
  const std::string path = temp_path("robust_missing.tnn");
  write_bytes(path, make_tnn1({entry_from(*params[0])}));
  EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  std::remove(path.c_str());
}

TEST(RobustSerialize, HugeHeaderFieldsRejectedBeforeAllocation) {
  Rng rng(9);
  nn::Linear b(3, 2, rng);
  const std::string path = temp_path("robust_huge.tnn");

  {  // name_len far beyond the file size
    std::string bytes = "TNN1";
    append_pod<std::uint32_t>(bytes, 1);
    append_pod<std::uint32_t>(bytes, 0x7FFFFFFFu);
    write_bytes(path, bytes);
    EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  }
  {  // implausible rank
    std::string bytes = "TNN1";
    append_pod<std::uint32_t>(bytes, 1);
    append_pod<std::uint32_t>(bytes, 1);
    bytes += "w";
    append_pod<std::uint32_t>(bytes, 1000000u);
    write_bytes(path, bytes);
    EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  }
  {  // extents whose product overflows / demands a multi-TB payload
    std::string bytes = "TNN1";
    append_pod<std::uint32_t>(bytes, 1);
    append_pod<std::uint32_t>(bytes, 1);
    bytes += "w";
    append_pod<std::uint32_t>(bytes, 2);
    append_pod<std::int64_t>(bytes, std::int64_t{1} << 36);
    append_pod<std::int64_t>(bytes, std::int64_t{1} << 36);
    write_bytes(path, bytes);
    EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, CorruptRejectionIncrementsCounter) {
  Rng rng(10);
  nn::Linear a(2, 2, rng);
  const std::string path = temp_path("robust_counter.tnn");
  nn::save_parameters(path, a.parameters());
  std::string bad = read_bytes(path);
  bad[bad.size() - 2] = static_cast<char>(
      static_cast<unsigned char>(bad[bad.size() - 2]) ^ 0x10u);
  write_bytes(path, bad);

  const std::int64_t before = obs::counter("robust/corrupt_rejected").value();
  EXPECT_THROW(nn::load_parameters(path, a.parameters()), CheckError);
  EXPECT_GT(obs::counter("robust/corrupt_rejected").value(), before);
  std::remove(path.c_str());
}

TEST(RobustSerialize, AbandonedAtomicWriteLeavesTargetIntact) {
  // Kill-mid-write simulation: an AtomicFileWriter that never commits (the
  // process "died") must leave the previous checkpoint byte-identical and
  // no tmp file behind.
  Rng rng(11);
  nn::Linear a(2, 2, rng), b(2, 2, rng);
  const std::string path = temp_path("robust_crash.tnn");
  nn::save_parameters(path, a.parameters());
  const std::string good = read_bytes(path);

  {
    util::AtomicFileWriter w(path);
    const char garbage[] = "partial garbage from a dying process";
    w.write(garbage, sizeof(garbage));
    // no commit() — the destructor is the crash cleanup path
  }
  EXPECT_EQ(read_bytes(path), good);
  EXPECT_FALSE(file_exists(util::AtomicFileWriter::tmp_path_for(path)));
  nn::load_parameters(path, b.parameters());  // still loads
  std::remove(path.c_str());
}

TEST(RobustSerialize, StaleTmpFromCrashIsIgnoredAndOverwritten) {
  // A hard kill can still leave a stale tmp (no destructor ran). Loaders
  // never open it, and the next save simply replaces it.
  Rng rng(12);
  nn::Linear a(2, 2, rng), b(2, 2, rng);
  const std::string path = temp_path("robust_stale.tnn");
  nn::save_parameters(path, a.parameters());
  write_bytes(util::AtomicFileWriter::tmp_path_for(path), "torn half-write");

  nn::load_parameters(path, b.parameters());  // final path unaffected
  nn::save_parameters(path, a.parameters());  // replaces the stale tmp
  EXPECT_FALSE(file_exists(util::AtomicFileWriter::tmp_path_for(path)));
  std::remove(path.c_str());
}

TEST(RobustSerialize, SaveLoadSaveByteIdenticalAcrossThreadWidths) {
  const std::string path_a = temp_path("robust_rt_a.tnn");
  const std::string path_b = temp_path("robust_rt_b.tnn");
  std::string first;
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::Scope scope(width);
    Rng rng(13);
    nn::Linear a(4, 5, rng), b(4, 5, rng);
    nn::save_parameters(path_a, a.parameters(), {{"dt_tc", 0.25}});
    nn::Metadata meta;
    nn::load_parameters(path_a, b.parameters(), &meta);
    nn::save_parameters(path_b, b.parameters(), meta);
    const std::string bytes_a = read_bytes(path_a);
    EXPECT_EQ(bytes_a, read_bytes(path_b)) << "width " << width;
    if (first.empty()) {
      first = bytes_a;
    } else {
      EXPECT_EQ(first, bytes_a) << "bytes differ across pool widths";
    }
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// --- TDS dataset corruption matrix ---------------------------------------

data::GeneratorConfig tiny_dataset_config() {
  data::GeneratorConfig cfg;
  cfg.grid = 16;
  cfg.u0 = 0.05;
  cfg.reynolds = 200.0;
  cfg.burn_in_tc = 0.05;
  cfg.t_end_tc = 0.15;
  cfg.dt_tc = 0.05;
  cfg.seed = 42;
  return cfg;
}

TEST(RobustDataset, V2RoundTripTruncationAndBitFlips) {
  const data::TurbulenceDataset ds =
      data::generate_ensemble(tiny_dataset_config(), 1);
  const std::string path = temp_path("robust_ds.tds");
  data::save_dataset(path, ds);
  const std::string good = read_bytes(path);
  ASSERT_GE(good.size(), 48u);
  EXPECT_EQ(good.substr(0, 4), "TDS2");

  const data::TurbulenceDataset loaded = data::load_dataset(path);
  ASSERT_EQ(loaded.num_samples(), ds.num_samples());
  for (index_t i = 0; i < ds.samples[0].u1.size(); ++i) {
    ASSERT_EQ(loaded.samples[0].u1[i], ds.samples[0].u1[i]);
  }

  // Truncation at the section boundaries: mid-magic, mid-header, mid-times,
  // mid-payload, mid-CRC.
  for (const std::size_t len :
       {std::size_t{2}, std::size_t{20}, std::size_t{46}, good.size() / 2,
        good.size() - 2}) {
    write_bytes(path, good.substr(0, len));
    EXPECT_THROW(data::load_dataset(path), CheckError)
        << "truncation to " << len << " bytes accepted";
  }
  // Bit flips in the header, payload, and checksum.
  for (const std::size_t byte :
       {std::size_t{5}, std::size_t{13}, std::size_t{60}, good.size() / 2,
        good.size() - 1}) {
    std::string bad = good;
    bad[byte] = static_cast<char>(static_cast<unsigned char>(bad[byte]) ^
                                  0x04u);
    write_bytes(path, bad);
    EXPECT_THROW(data::load_dataset(path), CheckError)
        << "bit flip at byte " << byte << " accepted";
  }
  std::remove(path.c_str());
}

TEST(RobustDataset, V1BackwardCompatLoads) {
  const data::TurbulenceDataset ds =
      data::generate_ensemble(tiny_dataset_config(), 2);
  std::string bytes = "TDS1";
  append_pod(bytes, ds.dt_tc);
  append_pod<std::int64_t>(bytes, ds.num_samples());
  append_pod<std::int64_t>(bytes, ds.samples[0].steps());
  append_pod<std::int64_t>(bytes, ds.samples[0].height());
  append_pod<std::int64_t>(bytes, ds.samples[0].width());
  for (const data::SnapshotSeries& s : ds.samples) {
    for (const double t : s.times) append_pod(bytes, t);
    for (const TensorF* f : {&s.u1, &s.u2, &s.omega}) {
      bytes.append(reinterpret_cast<const char*>(f->data()),
                   static_cast<std::size_t>(f->size()) * sizeof(float));
    }
  }
  const std::string path = temp_path("robust_ds_v1.tds");
  write_bytes(path, bytes);

  const data::TurbulenceDataset loaded = data::load_dataset(path);
  ASSERT_EQ(loaded.num_samples(), 2);
  EXPECT_DOUBLE_EQ(loaded.dt_tc, ds.dt_tc);
  for (index_t i = 0; i < ds.samples[1].omega.size(); ++i) {
    ASSERT_EQ(loaded.samples[1].omega[i], ds.samples[1].omega[i]);
  }
  std::remove(path.c_str());
}

TEST(RobustDataset, HugeHeaderExtentsRejectedBeforeAllocation) {
  const std::string path = temp_path("robust_ds_huge.tds");
  std::string bytes = "TDS1";
  append_pod(bytes, 0.05);
  append_pod<std::int64_t>(bytes, 1);                      // samples
  append_pod<std::int64_t>(bytes, std::int64_t{1} << 29);  // steps
  append_pod<std::int64_t>(bytes, std::int64_t{1} << 29);  // h: product
  append_pod<std::int64_t>(bytes, std::int64_t{1} << 29);  // w: overflows
  write_bytes(path, bytes);
  EXPECT_THROW(data::load_dataset(path), CheckError);

  // A header that merely disagrees with the actual file size.
  std::string small = "TDS1";
  append_pod(small, 0.05);
  append_pod<std::int64_t>(small, 1);
  append_pod<std::int64_t>(small, 4);
  append_pod<std::int64_t>(small, 64);
  append_pod<std::int64_t>(small, 64);
  small += "only a few payload bytes";
  write_bytes(path, small);
  EXPECT_THROW(data::load_dataset(path), CheckError);
  std::remove(path.c_str());
}

// --- guarded hybrid rollouts ---------------------------------------------

constexpr index_t kGrid = 32;
constexpr double kDtSnap = 0.01;

std::unique_ptr<ns::NsSolver> make_solver() {
  ns::NsConfig cfg;
  cfg.n = kGrid;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  return std::make_unique<ns::SpectralNsSolver>(cfg);
}

core::History make_seed(index_t n) {
  Rng rng(7);
  const auto field = lbm::random_vortex_velocity(kGrid, kGrid, 4.0, 1.0, rng);
  core::History history;
  core::FieldSnapshot snap;
  snap.t = 0.0;
  snap.u1 = field.u1;
  snap.u2 = field.u2;
  history.push_back(std::move(snap));
  if (n > 1) {
    core::PdePropagator pde(make_solver(), kDtSnap);
    for (auto& s : pde.advance(history, n - 1)) {
      history.push_back(std::move(s));
    }
  }
  return history;
}

bool all_finite(const core::RolloutResult& result) {
  for (const core::SnapshotMetrics& m : result.metrics) {
    if (!std::isfinite(m.kinetic_energy) || !std::isfinite(m.enstrophy)) {
      return false;
    }
  }
  for (const core::FieldSnapshot& s : result.trajectory) {
    for (index_t i = 0; i < s.u1.size(); ++i) {
      if (!std::isfinite(s.u1[i]) || !std::isfinite(s.u2[i])) return false;
    }
  }
  return true;
}

TEST(RolloutGuardTest, NanDivergenceTripsAndFallsBackToPde) {
  core::PdePropagator inner(make_solver(), kDtSnap);
  core::DivergentPropagator divergent(inner, /*healthy_snapshots=*/3,
                                      core::DivergentPropagator::Mode::nan);
  core::PdePropagator pde(make_solver(), kDtSnap);

  core::HybridConfig cfg;
  cfg.fno_snapshots = 4;
  cfg.pde_snapshots = 3;
  cfg.guard.enabled = true;
  cfg.guard.cooldown_snapshots = 3;
  core::HybridScheduler scheduler(divergent, pde, cfg);

  const std::int64_t trips_before = obs::counter("robust/guard_trips").value();
  const core::RolloutResult result = scheduler.run(make_seed(1), 16);

  ASSERT_EQ(result.trajectory.size(), 16u);
  EXPECT_TRUE(all_finite(result)) << "guard let a non-finite snapshot through";
  EXPECT_GT(result.guard_trips(), 0);
  EXPECT_GT(obs::counter("robust/guard_trips").value(), trips_before);
  bool saw_fallback = false;
  for (const std::string& producer : result.producer) {
    if (producer == "pde_fallback") saw_fallback = true;
    // Every surrogate window trips (snapshot 4 of the first window is
    // already past the 3 healthy ones), so no "divergent" snapshot may
    // survive into the trajectory.
    EXPECT_NE(producer, "divergent");
  }
  EXPECT_TRUE(saw_fallback);
  for (const core::GuardEvent& event : result.guard_events) {
    EXPECT_EQ(event.reason, core::GuardTrip::non_finite);
  }
}

TEST(RolloutGuardTest, EnergyBandTripsOnBlowup) {
  core::PdePropagator inner(make_solver(), kDtSnap);
  core::DivergentPropagator divergent(
      inner, /*healthy_snapshots=*/2, core::DivergentPropagator::Mode::blowup,
      /*blowup_factor=*/50.0);
  core::PdePropagator pde(make_solver(), kDtSnap);

  const core::SnapshotMetrics seed_metrics =
      core::compute_metrics(make_seed(1).front());
  core::HybridConfig cfg;
  cfg.fno_snapshots = 3;
  cfg.pde_snapshots = 3;
  cfg.guard.enabled = true;
  cfg.guard.energy_max = 10.0 * seed_metrics.kinetic_energy;
  core::HybridScheduler scheduler(divergent, pde, cfg);

  const core::RolloutResult result = scheduler.run(make_seed(1), 12);
  ASSERT_GT(result.guard_trips(), 0);
  EXPECT_EQ(result.guard_events.front().reason, core::GuardTrip::energy_high);
  // Decaying turbulence: the PDE keeps the energy inside the band, and no
  // blown-up surrogate snapshot reaches the trajectory.
  for (const core::SnapshotMetrics& m : result.metrics) {
    EXPECT_LE(m.kinetic_energy, 10.0 * seed_metrics.kinetic_energy);
  }
}

TEST(RolloutGuardTest, EnabledButUntrippedIsBitwiseIdenticalToDisabled) {
  const core::History seed = make_seed(1);

  const auto run_with = [&seed](bool guarded) {
    core::PdePropagator a(make_solver(), kDtSnap);
    core::PdePropagator b(make_solver(), kDtSnap);
    core::HybridConfig cfg;
    cfg.fno_snapshots = 3;
    cfg.pde_snapshots = 2;
    cfg.guard.enabled = guarded;  // infinite default bands: can never trip
    core::HybridScheduler scheduler(a, b, cfg);
    return scheduler.run(seed, 10);
  };
  const core::RolloutResult plain = run_with(false);
  const core::RolloutResult guarded = run_with(true);

  ASSERT_EQ(plain.trajectory.size(), guarded.trajectory.size());
  EXPECT_TRUE(guarded.guard_events.empty());
  for (std::size_t k = 0; k < plain.trajectory.size(); ++k) {
    for (index_t i = 0; i < plain.trajectory[k].u1.size(); ++i) {
      ASSERT_EQ(plain.trajectory[k].u1[i], guarded.trajectory[k].u1[i]);
      ASSERT_EQ(plain.trajectory[k].u2[i], guarded.trajectory[k].u2[i]);
    }
  }
}

TEST(RolloutGuardTest, EnvelopeStatsSurviveCopyAndClearOnReset) {
  core::GuardConfig cfg;
  cfg.enabled = true;
  core::RolloutGuard guard(cfg);

  // Pristine envelope: min at +inf, maxima at -inf, so the first observed
  // snapshot always tightens all three.
  EXPECT_EQ(guard.stats().energy_min_seen,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(guard.stats().energy_max_seen,
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(guard.stats().enstrophy_max_seen,
            -std::numeric_limits<double>::infinity());

  const core::History seed = make_seed(3);
  for (const core::FieldSnapshot& snap : seed) {
    (void)guard.check(snap, core::compute_metrics(snap), nullptr);
  }
  const double e_min = guard.stats().energy_min_seen;
  const double e_max = guard.stats().energy_max_seen;
  const double z_max = guard.stats().enstrophy_max_seen;
  EXPECT_TRUE(std::isfinite(e_min));
  EXPECT_LE(e_min, e_max);
  EXPECT_TRUE(std::isfinite(z_max));

  // The observed envelope is part of the per-stream value copy...
  const core::RolloutGuard clone = guard;
  EXPECT_EQ(clone.stats().energy_min_seen, e_min);
  EXPECT_EQ(clone.stats().energy_max_seen, e_max);
  EXPECT_EQ(clone.stats().enstrophy_max_seen, z_max);

  // ...and reset() returns every envelope field to its pristine state; a
  // stale envelope would mislead the next stream's band calibration.
  guard.reset();
  EXPECT_EQ(guard.stats().energy_min_seen,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(guard.stats().energy_max_seen,
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(guard.stats().enstrophy_max_seen,
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(clone.stats().energy_max_seen, e_max);  // clone unaffected
}

TEST(RolloutGuardTest, ResetRestoresConfiguredBandsAfterCalibration) {
  core::GuardConfig cfg;
  cfg.enabled = true;  // infinite default bands
  core::RolloutGuard guard(cfg);

  const core::FieldSnapshot snap = make_seed(1).front();
  const core::SnapshotMetrics metrics = core::compute_metrics(snap);
  EXPECT_EQ(guard.check(snap, metrics, nullptr), core::GuardTrip::none);

  // A spread calibrator writes a razor-thin band below the actual physics.
  guard.set_energy_band(metrics.kinetic_energy * 2.0,
                        metrics.kinetic_energy * 3.0);
  guard.set_enstrophy_max(metrics.enstrophy * 0.5);
  EXPECT_EQ(guard.check(snap, metrics, nullptr), core::GuardTrip::energy_low);

  // reset() must restore the as-constructed config, not keep the calibrated
  // band: a reused guard would otherwise trip on its first healthy window
  // from the previous stream's stale envelope.
  guard.reset();
  EXPECT_EQ(guard.config().energy_min, cfg.energy_min);
  EXPECT_EQ(guard.config().energy_max, cfg.energy_max);
  EXPECT_EQ(guard.config().enstrophy_max, cfg.enstrophy_max);
  EXPECT_EQ(guard.check(snap, metrics, nullptr), core::GuardTrip::none);
  EXPECT_EQ(guard.stats().trips, 0);
}

/// Two shear modes of equal amplitude, u1 = cos(2π·3y) + cos(2π·12y) on the
/// kGrid² grid, u2 = 0 (divergence-free). k_max = 16, so the guard's tail
/// starts at shell 2·16/3 = 10: the kʸ = 12 mode is all tail and the kʸ = 3
/// mode all body, each carrying half the kinetic energy.
core::FieldSnapshot half_tail_snapshot() {
  core::FieldSnapshot snap;
  snap.u1 = TensorD({kGrid, kGrid});
  snap.u2 = TensorD({kGrid, kGrid});
  const double two_pi = 2.0 * std::numbers::pi;
  for (index_t iy = 0; iy < kGrid; ++iy) {
    const double y = static_cast<double>(iy) / static_cast<double>(kGrid);
    for (index_t ix = 0; ix < kGrid; ++ix) {
      snap.u1(iy, ix) = std::cos(two_pi * 3.0 * y) + std::cos(two_pi * 12.0 * y);
    }
  }
  return snap;
}

TEST(RolloutGuardTest, SpectralTailTripsAboveLimitAndReportsFraction) {
  const core::FieldSnapshot snap = half_tail_snapshot();
  const core::SnapshotMetrics metrics = core::compute_metrics(snap);
  core::GuardConfig cfg;
  cfg.enabled = true;
  cfg.tail_fraction_max = 0.4;
  core::RolloutGuard guard(cfg);
  double fraction = 0.0;
  EXPECT_EQ(guard.check(snap, metrics, &fraction),
            core::GuardTrip::spectral_tail);
  EXPECT_NEAR(fraction, 0.5, 1e-12);
  EXPECT_EQ(guard.stats().trips, 1);
  EXPECT_EQ(guard.stats().last_trip, core::GuardTrip::spectral_tail);
  EXPECT_EQ(guard.stats().last_value, fraction);
}

TEST(RolloutGuardTest, SpectralTailBelowLimitDoesNotTrip) {
  const core::FieldSnapshot snap = half_tail_snapshot();
  const core::SnapshotMetrics metrics = core::compute_metrics(snap);
  core::GuardConfig cfg;
  cfg.enabled = true;
  cfg.tail_fraction_max = 0.6;
  core::RolloutGuard guard(cfg);
  double fraction = -1.0;
  EXPECT_EQ(guard.check(snap, metrics, &fraction), core::GuardTrip::none);
  EXPECT_EQ(fraction, -1.0);  // untouched when nothing trips
  EXPECT_EQ(guard.stats().checked, 1);
  EXPECT_EQ(guard.stats().trips, 0);
}

TEST(RolloutGuardTest, GuardedPureFnoRequiresCooldown) {
  core::PdePropagator fno_stub(make_solver(), kDtSnap);
  core::PdePropagator pde(make_solver(), kDtSnap);
  core::HybridConfig cfg;
  cfg.fno_snapshots = 4;
  cfg.pde_snapshots = 0;  // pure FNO: no window for the guard to degrade to
  cfg.guard.enabled = true;
  EXPECT_THROW(core::HybridScheduler(fno_stub, pde, cfg), CheckError);
  cfg.guard.cooldown_snapshots = 2;
  EXPECT_NO_THROW(core::HybridScheduler(fno_stub, pde, cfg));
}

/// Wraps a propagator and poisons every snapshot of exactly one advance()
/// call (0-based `bad_call`) with a NaN; every other call passes through.
class PoisonOneCall final : public core::Propagator {
 public:
  PoisonOneCall(core::Propagator& inner, index_t bad_call)
      : inner_(&inner), bad_call_(bad_call) {}

  std::vector<core::FieldSnapshot> advance(const core::History& history,
                                           index_t count) override {
    std::vector<core::FieldSnapshot> out = inner_->advance(history, count);
    if (calls_++ == bad_call_) {
      for (core::FieldSnapshot& snap : out) {
        snap.u1[0] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    return out;
  }
  [[nodiscard]] double dt_snap() const override { return inner_->dt_snap(); }
  [[nodiscard]] index_t min_history() const override {
    return inner_->min_history();
  }
  [[nodiscard]] std::string name() const override { return "poisoned"; }

 private:
  core::Propagator* inner_;
  index_t bad_call_;
  index_t calls_ = 0;
};

TEST(RolloutGuardTest, PlainStreamCooldownLongerThanWindowIsOneAdvance) {
  // A plain (non-alternating) guarded stream whose cool-down is longer than
  // its primary window: the cool-down is one fallback advance() of its full
  // length from the last accepted state, after which the primary resumes.
  constexpr index_t kWindow = 3;
  constexpr index_t kCooldown = 7;
  core::PdePropagator inner(make_solver(), kDtSnap);
  PoisonOneCall primary(inner, /*bad_call=*/1);
  core::PdePropagator fallback(make_solver(), kDtSnap);

  core::RolloutRequest req;
  req.seed = make_seed(1);
  req.steps = 2 * kWindow + kCooldown;
  req.window = kWindow;
  req.guard.enabled = true;
  req.guard.cooldown_snapshots = kCooldown;

  const std::int64_t windows0 = obs::counter("robust/fallback_windows").value();
  const std::int64_t snaps0 =
      obs::counter("robust/fallback_snapshots").value();
  const core::RolloutResult result =
      core::run_rollout(primary, req, &fallback);

  ASSERT_EQ(result.trajectory.size(),
            static_cast<std::size_t>(2 * kWindow + kCooldown));
  ASSERT_EQ(result.guard_trips(), 1);
  EXPECT_EQ(result.guard_events.front().trajectory_index, kWindow);
  EXPECT_EQ(obs::counter("robust/fallback_windows").value() - windows0, 1);
  EXPECT_EQ(obs::counter("robust/fallback_snapshots").value() - snaps0,
            kCooldown);
  for (index_t k = 0; k < req.steps; ++k) {
    const bool cooling = k >= kWindow && k < kWindow + kCooldown;
    EXPECT_EQ(result.producer[static_cast<std::size_t>(k)],
              cooling ? "pde_fallback" : "poisoned")
        << "snapshot " << k;
  }

  // Reference: one advance(kCooldown) of a fresh PDE propagator from the
  // seed plus the accepted first window.
  core::History accepted = make_seed(1);
  for (index_t k = 0; k < kWindow; ++k) {
    accepted.push_back(result.trajectory[static_cast<std::size_t>(k)]);
  }
  core::PdePropagator reference(make_solver(), kDtSnap);
  const std::vector<core::FieldSnapshot> want =
      reference.advance(accepted, kCooldown);
  for (index_t k = 0; k < kCooldown; ++k) {
    const core::FieldSnapshot& got =
        result.trajectory[static_cast<std::size_t>(kWindow + k)];
    const core::FieldSnapshot& ref = want[static_cast<std::size_t>(k)];
    ASSERT_EQ(got.t, ref.t) << "cool-down snapshot " << k;
    for (index_t i = 0; i < ref.u1.size(); ++i) {
      ASSERT_EQ(got.u1[i], ref.u1[i]) << "cool-down snapshot " << k;
      ASSERT_EQ(got.u2[i], ref.u2[i]) << "cool-down snapshot " << k;
    }
  }
}

TEST(RunSingle, EmptySeedRejected) {
  core::PdePropagator pde(make_solver(), kDtSnap);
  core::RolloutRequest req;
  req.steps = 4;  // seed left empty
  EXPECT_THROW(core::run_rollout(pde, req), CheckError);
}

TEST(RunSingle, SeedShorterThanMinHistoryRejected) {
  /// A propagator demanding a longer input window than the seed provides —
  /// the FNO propagator shape without the model weights.
  class WindowedStub final : public core::Propagator {
   public:
    std::vector<core::FieldSnapshot> advance(const core::History& history,
                                             index_t count) override {
      std::vector<core::FieldSnapshot> out;
      for (index_t i = 0; i < count; ++i) {
        core::FieldSnapshot snap = history.back();
        snap.t += kDtSnap * static_cast<double>(i + 1);
        out.push_back(std::move(snap));
      }
      return out;
    }
    [[nodiscard]] double dt_snap() const override { return kDtSnap; }
    [[nodiscard]] index_t min_history() const override { return 3; }
    [[nodiscard]] std::string name() const override { return "stub"; }
  };
  WindowedStub stub;
  core::RolloutRequest req;
  req.seed = make_seed(1);
  req.steps = 4;
  EXPECT_THROW(core::run_rollout(stub, req), CheckError);
  req.seed = make_seed(3);
  EXPECT_NO_THROW(core::run_rollout(stub, req));
}

// --- trainer fault handling ----------------------------------------------

fno::FnoConfig tiny_fno_config() {
  fno::FnoConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 8;
  cfg.n_layers = 2;
  cfg.n_modes = {8, 8};
  cfg.lifting_channels = 16;
  cfg.projection_channels = 16;
  return cfg;
}

TensorF random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  TensorF x(std::move(shape));
  x.fill_normal(rng, 0.0, 1.0);
  return x;
}

TEST(RobustTrainer, ExplodingLrAbortsWithFiniteWeights) {
  Rng rng(123);
  fno::Fno model(tiny_fno_config(), rng);
  nn::DataLoader loader(random_tensor({8, 3, 16, 16}, 77),
                        random_tensor({8, 2, 16, 16}, 78), 4, true, 9);
  fno::TrainConfig cfg;
  cfg.epochs = 10;
  cfg.lr = 1e18;  // guaranteed float overflow within one step
  cfg.max_recoveries = 2;
  cfg.verbose = false;

  const std::int64_t restores_before =
      obs::counter("robust/train_restores").value();
  const fno::TrainResult result = fno::train_fno(model, loader, cfg);

  EXPECT_TRUE(result.aborted);
  EXPECT_GE(result.recoveries, 1);
  EXPECT_GT(obs::counter("robust/train_restores").value(), restores_before);
  for (const nn::Parameter* p : model.parameters()) {
    for (index_t i = 0; i < p->value.size(); ++i) {
      ASSERT_TRUE(std::isfinite(p->value[i]))
          << "non-finite weight survived the abort in " << p->name;
    }
  }
  for (const fno::EpochStats& stats : result.history) {
    EXPECT_TRUE(std::isfinite(stats.train_loss))
        << "a non-finite loss was averaged into EpochStats";
  }
}

TEST(RobustTrainer, FiniteTrainingUnaffectedByFaultMachinery) {
  const auto train_with = [](bool guard) {
    Rng rng(123);
    fno::Fno model(tiny_fno_config(), rng);
    nn::DataLoader loader(random_tensor({8, 3, 16, 16}, 71),
                          random_tensor({8, 2, 16, 16}, 72), 4, true, 9);
    fno::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.verbose = false;
    cfg.abort_on_nonfinite = guard;
    const fno::TrainResult result = fno::train_fno(model, loader, cfg);
    std::vector<float> weights;
    for (const nn::Parameter* p : model.parameters()) {
      weights.insert(weights.end(), p->value.data(),
                     p->value.data() + p->value.size());
    }
    return std::make_pair(result.history, weights);
  };
  const auto [hist_on, weights_on] = train_with(true);
  const auto [hist_off, weights_off] = train_with(false);
  ASSERT_EQ(hist_on.size(), hist_off.size());
  for (std::size_t e = 0; e < hist_on.size(); ++e) {
    EXPECT_EQ(hist_on[e].train_loss, hist_off[e].train_loss);
  }
  EXPECT_EQ(weights_on, weights_off);
}

TEST(RobustTrainer, CheckpointResumeContinuesSchedule) {
  const std::string ckpt = temp_path("robust_resume.tnn");
  std::remove(ckpt.c_str());
  const auto make_loader = [] {
    return nn::DataLoader(random_tensor({8, 3, 16, 16}, 31),
                          random_tensor({8, 2, 16, 16}, 32), 4, true, 9);
  };

  Rng rng_a(55);
  fno::Fno model(tiny_fno_config(), rng_a);
  {
    auto loader = make_loader();
    fno::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.verbose = false;
    cfg.checkpoint_path = ckpt;
    const fno::TrainResult first = fno::train_fno(model, loader, cfg);
    EXPECT_GE(first.checkpoints_written, 1);
    EXPECT_TRUE(file_exists(ckpt));
  }
  Rng rng_b(999);  // resumed weights come from the checkpoint, not this init
  fno::Fno resumed(tiny_fno_config(), rng_b);
  {
    auto loader = make_loader();
    fno::TrainConfig cfg;
    cfg.epochs = 4;
    cfg.verbose = false;
    cfg.checkpoint_path = ckpt;
    cfg.resume = true;
    const fno::TrainResult second = fno::train_fno(resumed, loader, cfg);
    EXPECT_EQ(second.start_epoch, 2);
    ASSERT_EQ(second.history.size(), 2u);
    EXPECT_EQ(second.history.front().epoch, 2);
  }
  for (const nn::Parameter* p : resumed.parameters()) {
    for (index_t i = 0; i < p->value.size(); ++i) {
      ASSERT_TRUE(std::isfinite(p->value[i]));
    }
  }
  // The final checkpoint reflects the full 4-epoch schedule.
  nn::Metadata meta;
  Rng rng_c(1);
  fno::Fno probe(tiny_fno_config(), rng_c);
  nn::load_parameters(ckpt, probe.parameters(), &meta);
  EXPECT_DOUBLE_EQ(meta.at("epoch"), 4.0);
  std::remove(ckpt.c_str());
}

TEST(RobustTrainer, PeriodicCheckpointsAreWritten) {
  const std::string ckpt = temp_path("robust_periodic.tnn");
  std::remove(ckpt.c_str());
  Rng rng(66);
  fno::Fno model(tiny_fno_config(), rng);
  nn::DataLoader loader(random_tensor({8, 3, 16, 16}, 41),
                        random_tensor({8, 2, 16, 16}, 42), 4, true, 9);
  fno::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.verbose = false;
  cfg.checkpoint_path = ckpt;
  cfg.checkpoint_every = 1;
  const fno::TrainResult result = fno::train_fno(model, loader, cfg);
  // Periodic writes after epochs 1, 2, 3 plus the final write at epoch 4.
  EXPECT_EQ(result.checkpoints_written, 4);
  EXPECT_TRUE(file_exists(ckpt));
  EXPECT_FALSE(file_exists(util::AtomicFileWriter::tmp_path_for(ckpt)));
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace turb
