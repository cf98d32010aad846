// Interaction-stage parity: the report text and every InteractionStats
// field of a full DRC run, pinned as constants over generated chips
// (1x1 and 2x2 blocks, three inject seeds, both interaction modes), the
// 4x4-block chip the cold-check benchmark serves, and one inverter in
// each of the eight orientations. Every case runs at pool sizes 1 and 4
// against the same constants, so neither the net-identity scheme of the
// interaction stage nor the pool may change a byte or a count.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "drc/checker.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"

namespace dic::drc {
namespace {

const tech::Technology& nmos() {
  static const tech::Technology t = tech::nmos();
  return t;
}

/// What one run is pinned by. The report text is pinned by its length
/// and 64-bit FNV-1a hash; perLayerPair as "la-lb:n" tokens.
struct Fingerprint {
  std::size_t violations{0};
  std::size_t textBytes{0};
  std::uint64_t textHash{0};
  std::size_t candidatePairs{0};
  std::size_t sameNetSkipped{0};
  std::size_t relatedSkipped{0};
  std::size_t noRulePairs{0};
  std::size_t distanceChecks{0};
  std::size_t connectionChecks{0};
  std::string perLayerPair;

  bool operator==(const Fingerprint&) const = default;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << "{" << f.violations << ", " << f.textBytes << ", 0x"
            << std::hex << f.textHash << std::dec << "ull, "
            << f.candidatePairs << ", " << f.sameNetSkipped << ", "
            << f.relatedSkipped << ", " << f.noRulePairs << ", "
            << f.distanceChecks << ", " << f.connectionChecks << ", \""
            << f.perLayerPair << "\"}";
}

Fingerprint runCheck(const layout::Library& lib, layout::CellId root,
                     bool hierarchical, int threads) {
  Options opt;
  opt.hierarchicalInteractions = hierarchical;
  opt.threads = threads;
  Checker checker(lib, root, nmos(), opt);
  const report::Report rep = checker.run();
  const std::string text = rep.text();
  const InteractionStats& s = checker.interactionStats();
  Fingerprint f{rep.count(),        text.size(),        fnv1a(text),
                s.candidatePairs,   s.sameNetSkipped,   s.relatedSkipped,
                s.noRulePairs,      s.distanceChecks,   s.connectionChecks,
                {}};
  std::ostringstream pl;
  for (const auto& [k, n] : s.perLayerPair)
    pl << (pl.tellp() > 0 ? " " : "") << k.first << "-" << k.second << ":"
       << n;
  f.perLayerPair = pl.str();
  return f;
}

void expectPinned(const layout::Library& lib, layout::CellId root,
                  bool hierarchical, const Fingerprint& want,
                  const std::string& what) {
  for (const int threads : {1, 4})
    EXPECT_EQ(runCheck(lib, root, hierarchical, threads), want)
        << what << (hierarchical ? " hier" : " flat") << " pool=" << threads
        << "\n  got  " << runCheck(lib, root, hierarchical, threads)
        << "\n  want " << want;
}

workload::GeneratedChip injectedChip(const workload::ChipParams& p,
                                     const workload::InjectionPlan& plan,
                                     unsigned seed) {
  workload::GeneratedChip chip = workload::generateChip(nmos(), p);
  workload::inject(chip, nmos(), plan, seed);
  return chip;
}

struct ChipCase {
  int blocks;
  unsigned seed;
  Fingerprint hier;
  Fingerprint flat;
};

// clang-format off
const ChipCase kChipCases[] = {
    {1, 1,
     {36, 3018, 0x8583fc8959de2e7aull, 558, 32, 111, 713, 24, 62, "0-1:6 1-2:6 3-3:12"},
     {36, 3018, 0x50a20d42638849c0ull, 1358, 32, 111, 817, 24, 62, "0-1:6 1-2:6 3-3:12"}},
    {1, 7,
     {36, 3036, 0xa9b75207c159ce89ull, 557, 32, 111, 713, 24, 62, "0-1:6 1-2:6 3-3:12"},
     {36, 3036, 0x98228581d6367887ull, 1357, 32, 111, 817, 24, 62, "0-1:6 1-2:6 3-3:12"}},
    {1, 401,
     {36, 2992, 0x50a249ac7c9b32cull, 557, 32, 111, 713, 24, 62, "0-1:6 1-2:6 3-3:12"},
     {36, 2992, 0xc1bbf9ab906d3eceull, 1357, 32, 111, 817, 24, 62, "0-1:6 1-2:6 3-3:12"}},
    {2, 1,
     {36, 3077, 0x343014440e83dc79ull, 557, 68, 399, 2615, 24, 206, "0-1:6 1-2:6 3-3:12"},
     {36, 3077, 0x29bfffb9a18aa27ull, 4975, 68, 399, 3031, 24, 206, "0-1:6 1-2:6 3-3:12"}},
    {2, 7,
     {36, 3045, 0x598a148a8a5c85b8ull, 557, 68, 399, 2615, 24, 206, "0-1:6 1-2:6 3-3:12"},
     {36, 3045, 0x5b056f5661594a1eull, 4975, 68, 399, 3031, 24, 206, "0-1:6 1-2:6 3-3:12"}},
    {2, 401,
     {36, 3055, 0x5bbf1cf5c43d51c8ull, 557, 68, 399, 2615, 24, 206, "0-1:6 1-2:6 3-3:12"},
     {36, 3055, 0x8c63ac59b8a69eeaull, 4975, 68, 399, 3031, 24, 206, "0-1:6 1-2:6 3-3:12"}},
};
// clang-format on

TEST(InteractionIdentity, GeneratedChipsMatchPinnedReports) {
  for (const ChipCase& c : kChipCases) {
    const workload::GeneratedChip chip = injectedChip(
        {c.blocks, c.blocks, 2, 4, true}, workload::InjectionPlan{}, c.seed);
    const std::string what = std::to_string(c.blocks) + "x" +
                             std::to_string(c.blocks) + " seed " +
                             std::to_string(c.seed);
    expectPinned(chip.lib, chip.top, true, c.hier, what);
    expectPinned(chip.lib, chip.top, false, c.flat, what);
  }
}

TEST(InteractionIdentity, ColdChipPlanLargeChipMatchesPinnedReport) {
  // The 4x4-block chip with only the defect classes a hierarchical DRC
  // flags (no accidental FETs, contacts over gates, shorts or floating
  // nets), inject seed 401.
  workload::InjectionPlan plan;
  plan.accidentalFets = 0;
  plan.contactsOverGate = 0;
  plan.powerGroundShorts = 0;
  plan.floatingNets = 0;
  const workload::GeneratedChip chip =
      injectedChip({4, 4, 12, 22, true}, plan, 401);
  const Fingerprint want{12,    1056, 0xf920372f51ca4bc1ull, 11126, 8076,
                         50728, 340898, 4, 25382, "3-3:4"};
  expectPinned(chip.lib, chip.top, true, want, "4x4 cold plan seed 401");
}

TEST(InteractionIdentity, EightOrientationsMatchPinnedReports) {
  // clang-format off
  const Fingerprint hier[8] = {
      {0, 0, 0x14650fb0739d0383ull, 96, 0, 11, 55, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 96, 0, 11, 55, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 96, 0, 11, 55, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 96, 0, 11, 55, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 96, 0, 11, 55, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 96, 0, 11, 55, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 96, 0, 11, 55, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 96, 0, 11, 55, 0, 6, ""},
  };
  const Fingerprint flat[8] = {
      {0, 0, 0x14650fb0739d0383ull, 112, 0, 11, 68, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 112, 0, 11, 68, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 112, 0, 11, 68, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 112, 0, 11, 68, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 112, 0, 11, 68, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 112, 0, 11, 68, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 112, 0, 11, 68, 0, 6, ""},
      {0, 0, 0x14650fb0739d0383ull, 112, 0, 11, 68, 0, 6, ""},
  };
  // clang-format on
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, nmos());
  for (int i = 0; i < 8; ++i) {
    layout::Cell top;
    top.name = "top_" + std::to_string(i);
    top.instances.push_back(
        {cells.inverter, {static_cast<geom::Orient>(i), {10000, -7000}}, "u"});
    const layout::CellId root = lib.addCell(std::move(top));
    const std::string what = "orient " + std::to_string(i);
    expectPinned(lib, root, true, hier[i], what);
    expectPinned(lib, root, false, flat[i], what);
  }
}

}  // namespace
}  // namespace dic::drc
