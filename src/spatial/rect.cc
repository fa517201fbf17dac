#include "spatial/rect.h"

#include <algorithm>

#include "common/check.h"
#include "common/simd.h"

namespace walrus {

Rect Rect::Point(const std::vector<float>& point) {
  Rect r;
  r.lo_ = point;
  r.hi_ = point;
  r.empty_ = point.empty();
  return r;
}

Rect Rect::Bounds(std::vector<float> lo, std::vector<float> hi) {
  WALRUS_CHECK_EQ(lo.size(), hi.size());
  for (size_t i = 0; i < lo.size(); ++i) WALRUS_CHECK_LE(lo[i], hi[i]);
  Rect r;
  r.empty_ = lo.empty();
  r.lo_ = std::move(lo);
  r.hi_ = std::move(hi);
  return r;
}

Rect Rect::Empty(int dim) {
  Rect r;
  r.lo_.assign(dim, 0.0f);
  r.hi_.assign(dim, 0.0f);
  r.empty_ = true;
  return r;
}

std::vector<float> Rect::Center() const {
  WALRUS_CHECK(!empty_);
  std::vector<float> c(lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) c[i] = 0.5f * (lo_[i] + hi_[i]);
  return c;
}

void Rect::ExpandToInclude(const Rect& other) {
  if (other.empty_) return;
  if (empty_) {
    *this = other;
    return;
  }
  WALRUS_DCHECK_EQ(dim(), other.dim());
  for (int i = 0; i < dim(); ++i) {
    lo_[i] = std::min(lo_[i], other.lo_[i]);
    hi_[i] = std::max(hi_[i], other.hi_[i]);
  }
}

void Rect::ExpandToInclude(const std::vector<float>& point) {
  ExpandToInclude(Rect::Point(point));
}

Rect Rect::Expanded(float epsilon) const {
  WALRUS_CHECK(!empty_);
  Rect r = *this;
  for (int i = 0; i < dim(); ++i) {
    r.lo_[i] -= epsilon;
    r.hi_[i] += epsilon;
  }
  return r;
}

bool Rect::Intersects(const Rect& other) const {
  if (empty_ || other.empty_) return false;
  WALRUS_DCHECK_EQ(dim(), other.dim());
  return simd::Active().rect_intersects(lo_.data(), hi_.data(),
                                        other.lo_.data(), other.hi_.data(),
                                        dim());
}

bool Rect::ExpandedIntersects(float epsilon, const Rect& other) const {
  WALRUS_CHECK(!empty_);
  if (other.empty_) return false;
  WALRUS_DCHECK_EQ(dim(), other.dim());
  return simd::Active().rect_intersects_expanded(
      lo_.data(), hi_.data(), epsilon, other.lo_.data(), other.hi_.data(),
      dim());
}

bool Rect::Contains(const std::vector<float>& point) const {
  return Contains(point.data(), static_cast<int>(point.size()));
}

bool Rect::Contains(const float* point, int n) const {
  if (empty_) return false;
  WALRUS_DCHECK_EQ(dim(), n);
  return simd::Active().rect_contains_point(lo_.data(), hi_.data(), point,
                                            n);
}

bool Rect::ContainsRect(const Rect& other) const {
  if (empty_ || other.empty_) return false;
  for (int i = 0; i < dim(); ++i) {
    if (other.lo_[i] < lo_[i] || other.hi_[i] > hi_[i]) return false;
  }
  return true;
}

double Rect::Area() const {
  if (empty_) return 0.0;
  double area = 1.0;
  for (int i = 0; i < dim(); ++i) {
    area *= static_cast<double>(hi_[i]) - lo_[i];
  }
  return area;
}

double Rect::Margin() const {
  if (empty_) return 0.0;
  double margin = 0.0;
  for (int i = 0; i < dim(); ++i) {
    margin += static_cast<double>(hi_[i]) - lo_[i];
  }
  return margin;
}

double Rect::OverlapArea(const Rect& other) const {
  if (empty_ || other.empty_) return 0.0;
  double area = 1.0;
  for (int i = 0; i < dim(); ++i) {
    double lo = std::max(lo_[i], other.lo_[i]);
    double hi = std::min(hi_[i], other.hi_[i]);
    if (hi <= lo) return 0.0;
    area *= hi - lo;
  }
  return area;
}

double Rect::Enlargement(const Rect& other) const {
  Rect u = Union(*this, other);
  return u.Area() - Area();
}

Rect Rect::Union(const Rect& a, const Rect& b) {
  Rect u = a;
  u.ExpandToInclude(b);
  return u;
}

double Rect::MinSquaredDistance(const std::vector<float>& point) const {
  return MinSquaredDistance(point.data(), static_cast<int>(point.size()));
}

double Rect::MinSquaredDistance(const float* point, int n) const {
  WALRUS_CHECK(!empty_);
  WALRUS_DCHECK_EQ(dim(), n);
  return simd::Active().min_squared_distance(lo_.data(), hi_.data(), point,
                                             n);
}

Rect RectView::ToRect() const {
  return Rect::Bounds(std::vector<float>(lo, lo + dim),
                      std::vector<float>(hi, hi + dim));
}

}  // namespace walrus
