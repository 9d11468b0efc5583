#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"

namespace zka::tensor {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const std::int64_t d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension in shape");
    n *= d;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor() : shape_{0} {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), value) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (static_cast<std::int64_t>(data_.size()) != shape_numel(shape_)) {
    throw std::invalid_argument("data size " + std::to_string(data_.size()) +
                                " does not match shape " +
                                shape_to_string(shape_));
  }
}

Tensor Tensor::uniform(Shape shape, util::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  t.fill_uniform(rng, lo, hi);
  return t;
}

void Tensor::fill_uniform(util::Rng& rng, float lo, float hi) noexcept {
  for (float& x : data_) {
    x = static_cast<float>(rng.uniform(lo, hi));
  }
}

Tensor Tensor::normal(Shape shape, util::Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (float& x : t.data_) {
    x = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

std::int64_t Tensor::dim(std::size_t axis) const {
  if (axis >= shape_.size()) {
    throw std::out_of_range("axis " + std::to_string(axis) +
                            " out of range for shape " +
                            shape_to_string(shape_));
  }
  return shape_[axis];
}

std::int64_t Tensor::flat_index(std::initializer_list<std::int64_t> idx) const {
  ZKA_DCHECK(idx.size() == shape_.size(), "at(): %zu indices for rank-%zu %s",
             idx.size(), shape_.size(), shape_to_string(shape_).c_str());
  std::int64_t flat = 0;
  std::size_t axis = 0;
  for (const std::int64_t i : idx) {
    ZKA_DCHECK(i >= 0 && i < shape_[axis],
               "at(): index %lld out of [0, %lld) on axis %zu of %s",
               static_cast<long long>(i),
               static_cast<long long>(shape_[axis]), axis,
               shape_to_string(shape_).c_str());
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<std::int64_t> idx) {
  return data_[static_cast<std::size_t>(flat_index(idx))];
}

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  return data_[static_cast<std::size_t>(flat_index(idx))];
}

Tensor Tensor::index_select0(std::span<const std::int64_t> indices) const {
  Tensor out;
  index_select0(indices, out);
  return out;
}

void Tensor::index_select0(std::span<const std::int64_t> indices,
                           Tensor& out) const {
  if (shape_.empty()) {
    throw std::invalid_argument("index_select0 on rank-0 tensor");
  }
  const std::int64_t row = numel() / std::max<std::int64_t>(shape_[0], 1);
  out.shape_.assign(shape_.begin(), shape_.end());
  out.shape_[0] = static_cast<std::int64_t>(indices.size());
  out.data_.resize(indices.size() * static_cast<std::size_t>(row));
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const std::int64_t i = indices[r];
    if (i < 0 || i >= shape_[0]) {
      throw std::out_of_range("index_select0 index out of range");
    }
    std::copy(data_.begin() + static_cast<std::ptrdiff_t>(i * row),
              data_.begin() + static_cast<std::ptrdiff_t>((i + 1) * row),
              out.data_.begin() + static_cast<std::ptrdiff_t>(r) * row);
  }
}

void Tensor::resize(std::span<const std::int64_t> shape) {
  std::int64_t n = 1;
  for (const std::int64_t d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension in shape");
    n *= d;
  }
  if (shape.data() != shape_.data()) shape_.assign(shape.begin(), shape.end());
  data_.resize(static_cast<std::size_t>(n));
}

void Tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

float Tensor::max() const {
  if (data_.empty()) throw std::logic_error("max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

std::int64_t Tensor::argmax() const {
  if (data_.empty()) throw std::logic_error("argmax of empty tensor");
  return static_cast<std::int64_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

bool allclose(const Tensor& a, const Tensor& b, float tol) noexcept {
  if (!a.same_shape(b)) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

}  // namespace zka::tensor
