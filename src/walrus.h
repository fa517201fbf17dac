#ifndef WALRUS_WALRUS_H_
#define WALRUS_WALRUS_H_

/// Umbrella header for the WALRUS similarity-retrieval library: pulls in the
/// full public API. Fine-grained consumers can include the individual
/// headers instead (core/index.h + core/query.h cover most applications).

#include "baselines/color_histogram.h"
#include "baselines/jfs.h"
#include "baselines/wbiis.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/params.h"
#include "core/query.h"
#include "core/region_extractor.h"
#include "core/similarity.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "image/color.h"
#include "image/dataset.h"
#include "image/image.h"
#include "image/pnm_io.h"
#include "image/synth.h"
#include "image/transform.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "spatial/rstar_tree.h"
#include "wavelet/haar1d.h"
#include "wavelet/haar2d.h"
#include "wavelet/sliding_window.h"

namespace walrus {

/// Library version (semantic). 1.0.0 corresponds to the full SIGMOD 1999
/// reproduction described in DESIGN.md; 1.1.0 adds the walrusd network
/// query-serving subsystem (server/).
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 1;
inline constexpr int kVersionPatch = 0;
inline constexpr const char* kVersionString = "1.1.0";

}  // namespace walrus

#endif  // WALRUS_WALRUS_H_
