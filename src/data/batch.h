// Mini-batches copied out of a Dataset.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace zka::data {

struct Batch {
  tensor::Tensor images;               // [B, C, H, W]
  std::vector<std::int64_t> labels;    // size B
};

/// Copies rows [begin, end) of `dataset`, in dataset order, into `out`.
/// Needs no index list.
void fill_batch(const Dataset& dataset, std::int64_t begin, std::int64_t end,
                Batch& out);

/// Copies the listed `rows` of `dataset`, in list order, into `out`; throws
/// std::out_of_range on a row outside the dataset.
///
/// Both fills resize `out`'s buffers in place, so a Batch the caller keeps
/// is refilled without allocating once it has held a full-size batch (a
/// last, partial batch only shrinks it).
void gather_batch(const Dataset& dataset, std::span<const std::int64_t> rows,
                  Batch& out);

}  // namespace zka::data
