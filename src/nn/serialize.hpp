// Binary (de)serialisation of model parameters.
//
// Format "TNN2" (default write): little-endian; magic, then per parameter:
// name length + bytes, rank, extents, float32 payload; then scalar metadata;
// then a CRC-32 of everything between the magic and the checksum. Writes go
// through a tmp-file + rename (util::AtomicFileWriter), so a crash mid-save
// never leaves a plausible-looking truncated checkpoint at the final path.
//
// Format "TNN3" (written when SaveOptions are passed): identical framing,
// plus one dtype byte per parameter between the extents and the payload
// (0 = fp32, 1 = bf16; any other tag is rejected as corrupt) and the payload
// stored in that dtype — bf16 checkpoints are half the size and deserve the
// same CRC + atomic protection as fp32 ones. Factorized-FNO checkpoints need nothing special:
// their per-axis factors are ordinary named parameters.
//
// Loading accepts TNN3, TNN2, and the legacy "TNN1" (TNN2 layout, no CRC);
// compressed payloads are widened to fp32 on load. Every header field is
// bounds-validated against the bytes actually present before any
// allocation, duplicate parameter entries are rejected, and the model is
// only written after the whole file — including the CRC — has been verified
// (strong exception guarantee). Parameters are matched by name and
// shape-checked, so a checkpoint survives refactors that reorder layers but
// not ones that rename or resize them. Rejected-as-corrupt loads increment
// the `robust/corrupt_rejected` counter.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "nn/parameter.hpp"
#include "util/precision.hpp"

namespace turb::nn {

/// Optional scalar metadata stored alongside the weights (normaliser
/// statistics, snapshot cadence, config hashes, …).
using Metadata = std::map<std::string, double>;

/// Checkpoint write options. Passing these (even at fp32) selects the TNN3
/// format with per-parameter dtype tags.
struct SaveOptions {
  util::Precision precision = util::Precision::kFp32;
};

/// Save parameters (and metadata) to `path`. Throws CheckError on failure.
void save_parameters(const std::string& path,
                     const std::vector<Parameter*>& params,
                     const Metadata& metadata = {});

/// TNN3 variant: store payloads at `options.precision` (fp32 values are
/// round-tripped through that precision on load — the error-bounded serving
/// contract applies, see DESIGN.md "Precision tiers").
void save_parameters(const std::string& path,
                     const std::vector<Parameter*>& params,
                     const Metadata& metadata, const SaveOptions& options);

/// Load into existing parameters (matched by name, shape-checked). When
/// `metadata` is non-null it receives the stored key/value pairs.
void load_parameters(const std::string& path,
                     const std::vector<Parameter*>& params,
                     Metadata* metadata = nullptr);

}  // namespace turb::nn
