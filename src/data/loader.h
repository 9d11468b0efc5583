// Mini-batch iteration over a Dataset (or an index view of one).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace zka::util {
class Rng;
}

namespace zka::data {

struct Batch {
  tensor::Tensor images;               // [B, C, H, W]
  std::vector<std::int64_t> labels;    // size B
};

/// Copies rows [begin, end) of `dataset`, in dataset order, into `out`,
/// resized in place as DataLoader::batch does. Needs no index list.
void fill_batch(const Dataset& dataset, std::int64_t begin, std::int64_t end,
                Batch& out);

class DataLoader {
 public:
  /// Iterates over the whole dataset.
  DataLoader(const Dataset& dataset, std::int64_t batch_size);
  /// Iterates over a subset given by indices into `dataset`.
  DataLoader(const Dataset& dataset, std::vector<std::int64_t> indices,
             std::int64_t batch_size);

  /// Number of batches per epoch (last batch may be smaller).
  std::int64_t num_batches() const noexcept;

  /// Reshuffles the iteration order (call once per epoch).
  void shuffle(util::Rng& rng);

  /// Materializes batch `b` in the current order into `out`: its buffers
  /// are resized in place, so a Batch the caller keeps is refilled without
  /// allocating once it has held a full-size batch (the last, partial batch
  /// only shrinks it).
  void batch(std::int64_t b, Batch& out) const;

  std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(indices_.size());
  }

  /// Hands the index list back (in its current order) and leaves the
  /// loader empty, so a caller can lend it a kept buffer by moving it in.
  std::vector<std::int64_t> release_indices() && {
    return std::move(indices_);
  }

 private:
  const Dataset* dataset_;
  std::vector<std::int64_t> indices_;
  std::int64_t batch_size_;
};

}  // namespace zka::data
