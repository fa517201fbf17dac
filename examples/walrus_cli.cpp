// Command-line front end for the WALRUS library, operating on directories
// of PPM images and persisted index files.
//
//   walrus_cli generate <dir> <count> [size]     synthesize a dataset
//   walrus_cli index <dir> <index_prefix> [paged]  index every *.ppm file
//   walrus_cli info <index_prefix>               print index statistics
//   walrus_cli query <index_prefix> <image.ppm> [epsilon] [top_k] [greedy]
//
// With `paged`, the index is written as a disk-resident page tree
// (<prefix>.ptree) and `query`/`info` open it without loading the tree into
// memory (pass the same prefix; both layouts are auto-detected).
//
// Example session:
//   ./build/examples/walrus_cli generate /tmp/db 100
//   ./build/examples/walrus_cli index /tmp/db /tmp/db/walrus
//   ./build/examples/walrus_cli query /tmp/db/walrus /tmp/db/img_3.ppm

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/index.h"
#include "core/query.h"
#include "image/dataset.h"
#include "image/pnm_io.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  walrus_cli generate <dir> <count> [size]\n"
               "  walrus_cli index <dir> <index_prefix> [paged]\n"
               "  walrus_cli info <index_prefix>\n"
               "  walrus_cli query <index_prefix> <image.ppm> [epsilon] "
               "[top_k] [greedy]\n");
  return 2;
}

std::vector<std::string> ListPpmFiles(const std::string& dir) {
  std::vector<std::string> files;
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) return files;
  while (dirent* entry = readdir(handle)) {
    std::string name = entry->d_name;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".ppm") {
      files.push_back(name);
    }
  }
  closedir(handle);
  std::sort(files.begin(), files.end());
  return files;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string dir = argv[2];
  ::mkdir(dir.c_str(), 0755);
  walrus::DatasetParams params;
  params.num_images = std::atoi(argv[3]);
  if (argc > 4) params.width = params.height = std::atoi(argv[4]);
  if (params.num_images <= 0 || params.width < 16) return Usage();
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(params);
  walrus::Status status = walrus::SaveDataset(dataset, dir);
  if (!status.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %d images (%dx%d) and labels.txt to %s\n",
              params.num_images, params.width, params.height, dir.c_str());
  return 0;
}

int CmdIndex(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string dir = argv[2];
  std::string prefix = argv[3];
  std::vector<std::string> files = ListPpmFiles(dir);
  if (files.empty()) {
    std::fprintf(stderr, "no .ppm files under %s\n", dir.c_str());
    return 1;
  }

  walrus::WalrusParams params;
  params.min_window = 16;
  params.max_window = 64;
  params.slide_step = 4;
  walrus::WalrusIndex index(params);

  std::vector<walrus::WalrusIndex::PendingImage> batch;
  uint64_t next_id = 0;
  for (const std::string& file : files) {
    auto image = walrus::ReadPnm(dir + "/" + file);
    if (!image.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", file.c_str(),
                   image.status().ToString().c_str());
      continue;
    }
    if (image->width() < params.min_window ||
        image->height() < params.min_window) {
      std::fprintf(stderr, "skipping %s: smaller than min window\n",
                   file.c_str());
      continue;
    }
    batch.push_back({next_id++, file, std::move(*image)});
  }

  walrus::WallTimer timer;
  walrus::Status status = index.AddImages(std::move(batch));
  if (!status.ok()) {
    std::fprintf(stderr, "indexing failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu images into %zu regions in %.2fs\n",
              index.ImageCount(), index.RegionCount(),
              timer.ElapsedSeconds());
  bool paged = argc > 4 && std::strcmp(argv[4], "paged") == 0;
  status = paged ? index.SavePaged(prefix) : index.Save(prefix);
  if (!status.ok()) {
    std::fprintf(stderr, "saving failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved to %s.%s\n", prefix.c_str(),
              paged ? "{catalog,pmeta,ptree}" : "{catalog,index}");
  return 0;
}

/// Opens whichever layout exists at the prefix (paged preferred).
walrus::Result<walrus::WalrusIndex> OpenAny(const std::string& prefix) {
  auto paged = walrus::WalrusIndex::OpenPaged(prefix);
  if (paged.ok()) return paged;
  return walrus::WalrusIndex::Open(prefix);
}

int CmdInfo(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto index = OpenAny(argv[2]);
  if (!index.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  const walrus::WalrusParams& p = index->params();
  std::printf("images:        %zu\n", index->ImageCount());
  std::printf("regions:       %zu\n", index->RegionCount());
  std::printf("tree height:   %d%s\n", index->tree().height(),
              index->is_paged() ? " (mapped)" : "");
  std::printf("color space:   %s\n", walrus::ColorSpaceName(p.color_space));
  std::printf("signature:     %dx%d per channel (%d dims)\n",
              p.signature_size, p.signature_size, p.SignatureDim());
  std::printf("windows:       %d..%d step %d\n", p.min_window, p.max_window,
              p.slide_step);
  std::printf("cluster eps:   %.3f\n", p.cluster_epsilon);
  std::printf("signature kind: %s\n",
              p.signature_kind == walrus::RegionSignatureKind::kCentroid
                  ? "centroid"
                  : "bounding-box");
  std::printf("backend:       %s\n",
              index->is_paged() ? "paged (disk tree)" : "in-memory tree");
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto index = OpenAny(argv[2]);
  if (!index.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  auto image = walrus::ReadPnm(argv[3]);
  if (!image.ok()) {
    std::fprintf(stderr, "reading %s failed: %s\n", argv[3],
                 image.status().ToString().c_str());
    return 1;
  }
  walrus::QueryOptions options;
  options.epsilon = argc > 4 ? std::atof(argv[4]) : 0.085f;
  options.top_k = argc > 5 ? std::atoi(argv[5]) : 14;  // the paper's grids
  if (argc > 6 && std::strcmp(argv[6], "greedy") == 0) {
    options.matcher = walrus::MatcherKind::kGreedy;
  }

  walrus::QueryStats stats;
  auto matches = walrus::ExecuteQuery(*index, *image, options, &stats);
  if (!matches.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 matches.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "query: %d regions, %.1f avg matches/region, %d candidate images, "
      "%.0f ms\n",
      stats.query_regions, stats.avg_regions_per_query_region,
      stats.distinct_images, stats.seconds * 1e3);
  for (size_t i = 0; i < matches->size(); ++i) {
    const walrus::QueryMatch& m = (*matches)[i];
    const walrus::ImageRecord* record =
        index->catalog().FindImage(m.image_id);
    std::printf("%2zu. %-24s similarity=%.3f (pairs=%d)\n", i + 1,
                record != nullptr ? record->name.c_str() : "?", m.similarity,
                m.matching_pairs);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "index") return CmdIndex(argc, argv);
  if (command == "info") return CmdInfo(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  return Usage();
}
