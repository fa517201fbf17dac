#include "core/signature.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/status.h"
#include "image/color.h"
#include "wavelet/sliding_window.h"

#include "common/check.h"

namespace walrus {
namespace {

bool AllFinite(const std::vector<float>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](float v) { return std::isfinite(v); });
}

}  // namespace

void AppendNormalizedBlock(const float* raw_block, int s,
                           std::vector<float>* out) {
  WALRUS_DCHECK(IsPowerOfTwo(static_cast<uint32_t>(s)));
  size_t base = out->size();
  out->insert(out->end(), raw_block, raw_block + static_cast<size_t>(s) * s);
  // Detail quadrants of side m are scaled by 1/m (see
  // HaarNormalizeNonStandard); the average (0,0) is untouched.
  for (int m = 1; m < s; m *= 2) {
    float inv = 1.0f / static_cast<float>(m);
    for (int j = 0; j < m; ++j) {
      float* row_top = out->data() + base + static_cast<size_t>(j) * s;
      float* row_bottom = out->data() + base + static_cast<size_t>(m + j) * s;
      for (int i = 0; i < m; ++i) {
        row_top[m + i] *= inv;     // horizontal quadrant
        row_bottom[i] *= inv;      // vertical quadrant
        row_bottom[m + i] *= inv;  // diagonal quadrant
      }
    }
  }
}

Result<WindowSignatureSet> ComputeWindowSignatures(
    const ImageF& image, const WalrusParams& params) {
  WALRUS_RETURN_IF_ERROR(params.Validate());
  if (image.empty()) return Status::InvalidArgument("empty image");
  // A NaN pixel would reach the R*-tree as NaN bounds, and a color
  // conversion would clamp an infinite one away silently. Every image
  // passes through here before anything is indexed or logged.
  for (int c = 0; c < image.channels(); ++c) {
    if (!AllFinite(image.Plane(c))) {
      return Status::InvalidArgument("image has a NaN or infinite pixel");
    }
  }
  WALRUS_ASSIGN_OR_RETURN(ImageF converted,
                          ConvertColorSpace(image, params.color_space));
  const int channels = params.Channels();
  WALRUS_CHECK_EQ(converted.channels(), channels);

  if (converted.width() < params.min_window ||
      converted.height() < params.min_window) {
    return Status::InvalidArgument(
        "image smaller than min_window: " + std::to_string(converted.width()) +
        "x" + std::to_string(converted.height()));
  }
  int max_window = std::min<int>(
      params.max_window,
      NextPowerOfTwo(static_cast<uint32_t>(
          std::min(converted.width(), converted.height()))));
  while (max_window > std::min(converted.width(), converted.height())) {
    max_window /= 2;
  }
  WALRUS_CHECK_GE(max_window, params.min_window);

  const int s = params.signature_size;

  // Per-channel DP sweep; all levels up to max_window are produced, we keep
  // those in [min_window, max_window].
  std::vector<std::vector<WindowSignatureGrid>> per_channel;
  per_channel.reserve(channels);
  for (int c = 0; c < channels; ++c) {
    per_channel.push_back(ComputeSlidingWindowSignatures(
        converted.Plane(c), converted.width(), converted.height(), s,
        max_window, params.slide_step));
  }

  WindowSignatureSet set;
  set.dim = params.SignatureDim();
  for (size_t level = 0; level < per_channel[0].size(); ++level) {
    const WindowSignatureGrid& grid0 = per_channel[0][level];
    if (grid0.window_size < params.min_window) continue;
    WALRUS_CHECK_EQ(grid0.sig_n, s);
    for (int iy = 0; iy < grid0.ny; ++iy) {
      for (int ix = 0; ix < grid0.nx; ++ix) {
        set.windows.push_back(
            {grid0.RootX(ix), grid0.RootY(iy), grid0.window_size});
        for (int c = 0; c < channels; ++c) {
          AppendNormalizedBlock(per_channel[c][level].SigAt(ix, iy), s,
                                &set.signatures);
        }
      }
    }
  }
  WALRUS_CHECK_EQ(set.signatures.size(),
                  set.windows.size() * static_cast<size_t>(set.dim));
  // Finite pixels can still overflow float in the window sums.
  if (!AllFinite(set.signatures)) {
    return Status::InvalidArgument(
        "image yields a non-finite window signature");
  }
  return set;
}

}  // namespace walrus
