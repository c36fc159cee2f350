#include "outcome.h"

#include <algorithm>

namespace perfbench {

void LatencyCounts::Add(taureau::SimDuration us) {
  ++n_;
  us = std::max<taureau::SimDuration>(us, 0);
  if (us < kDenseUs) {
    if (dense_.empty()) dense_.assign(size_t(kDenseUs), 0);
    ++dense_[size_t(us)];
  } else {
    overflow_.push_back(us);
  }
}

void LatencyCounts::Merge(const LatencyCounts& other) {
  n_ += other.n_;
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  if (other.dense_.empty()) return;
  if (dense_.empty()) dense_.assign(size_t(kDenseUs), 0);
  for (size_t i = 0; i < dense_.size(); ++i) dense_[i] += other.dense_[i];
}

double LatencyCounts::Quantile(double q) const {
  if (n_ == 0) return 0;
  const double rank = std::clamp(q, 0.0, 1.0) * double(n_);
  double below = 0;  // samples in the groups already passed
  for (size_t v = 0; v < dense_.size(); ++v) {
    const double count = double(dense_[v]);
    if (count > 0 && rank <= below + count) {
      return double(v) + (rank - below) / count;
    }
    below += count;
  }
  std::vector<taureau::SimDuration> over = overflow_;
  std::sort(over.begin(), over.end());
  for (size_t i = 0; i < over.size();) {
    size_t j = i;
    while (j < over.size() && over[j] == over[i]) ++j;
    const double count = double(j - i);
    if (rank <= below + count) {
      return double(over[i]) + (rank - below) / count;
    }
    below += count;
    i = j;
  }
  return over.empty() ? double(kDenseUs) : double(over.back());
}

}  // namespace perfbench
