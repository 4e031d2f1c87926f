#include "sim/columnar_kernels.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>

#include "sim/edit_distance.h"
#include "sim/jaro.h"
#include "util/fnv.h"
#include "util/string_util.h"

namespace pdd {

namespace {

inline uint64_t GramBit(unsigned char c0, unsigned char c1) {
  return uint64_t{1} << (FnvByte(FnvByte(kFnvOffset, c0), c1) & 63);
}

inline double NormalizeByMaxLength(size_t distance, std::string_view a,
                                   std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(distance) / static_cast<double>(max_len);
}

// --- kernel implementations ------------------------------------------
// Each replicates its scalar comparator's arithmetic exactly; see the
// header for which shortcuts are provably bit-exact.

double ExactKernel(std::string_view a, std::string_view b, uint64_t sig_a,
                   uint64_t sig_b, SimScratch&) {
  // Unequal signatures prove unequal strings (equal strings have equal
  // gram sets, hence equal signatures).
  if (sig_a != sig_b) return 0.0;
  return a == b ? 1.0 : 0.0;
}

double ExactNoCaseKernel(std::string_view a, std::string_view b, uint64_t,
                         uint64_t, SimScratch&) {
  return EqualsIgnoreCase(a, b) ? 1.0 : 0.0;
}

double PrefixKernel(std::string_view a, std::string_view b, uint64_t,
                    uint64_t, SimScratch&) {
  if (a.empty() && b.empty()) return 1.0;
  size_t lcp = 0;
  size_t limit = std::min(a.size(), b.size());
  while (lcp < limit && a[lcp] == b[lcp]) ++lcp;
  return static_cast<double>(lcp) /
         static_cast<double>(std::max(a.size(), b.size()));
}

double HammingKernel(std::string_view a, std::string_view b, uint64_t,
                     uint64_t, SimScratch&) {
  // Branch-free mismatch count over the common prefix: the flat
  // byte-compare loop the autovectorizer turns into SIMD compares.
  const size_t common = std::min(a.size(), b.size());
  const char* pa = a.data();
  const char* pb = b.data();
  size_t mismatches = 0;
  for (size_t i = 0; i < common; ++i) {
    mismatches += static_cast<size_t>(pa[i] != pb[i]);
  }
  size_t dist = (std::max(a.size(), b.size()) - common) + mismatches;
  return NormalizeByMaxLength(dist, a, b);
}

double LevenshteinKernel(std::string_view a, std::string_view b, uint64_t,
                         uint64_t, SimScratch& scratch) {
  if (a == b) return 1.0;  // distance 0 normalizes to exactly 1.0
  return NormalizeByMaxLength(BandedLevenshteinDistance(a, b, scratch), a, b);
}

double DamerauKernel(std::string_view a, std::string_view b, uint64_t,
                     uint64_t, SimScratch& scratch) {
  if (a == b) return 1.0;
  return NormalizeByMaxLength(DamerauLevenshteinDistance(a, b, scratch), a,
                              b);
}

double LcsKernel(std::string_view a, std::string_view b, uint64_t, uint64_t,
                 SimScratch& scratch) {
  if (a == b) return 1.0;  // |lcs| == max_len divides to exactly 1.0
  size_t max_len = std::max(a.size(), b.size());
  return static_cast<double>(LongestCommonSubsequence(a, b, scratch)) /
         static_cast<double>(max_len);
}

double JaroKernel(std::string_view a, std::string_view b, uint64_t, uint64_t,
                  SimScratch& scratch) {
  if (a == b) return 1.0;  // m/|a|, m/|b|, m/m all exactly 1.0
  return JaroSimilarity(a, b, scratch);
}

double JaroWinklerKernel(std::string_view a, std::string_view b, uint64_t,
                         uint64_t, SimScratch& scratch) {
  if (a == b) return 1.0;  // jaro 1.0 → jw = 1.0 + prefix·p·0.0
  return JaroWinklerSimilarity(a, b, /*prefix_scale=*/0.1, scratch);
}

/// Padded q-gram views of `s` into `pad` (the padded copy the views
/// point into) and `items`, sorted ascending. Matches QGrams(s, q, '#').
void SortedPaddedGramViews(std::string_view s, size_t q, std::string& pad,
                           std::vector<std::string_view>& items) {
  pad.assign(q - 1, '#');
  pad.append(s.data(), s.size());
  pad.append(q - 1, '#');
  items.clear();
  std::string_view padded(pad);
  for (size_t i = 0; i + q <= padded.size(); ++i) {
    items.push_back(padded.substr(i, q));
  }
  std::sort(items.begin(), items.end());
}

/// Multiset intersection size of two sorted view sequences:
/// Σ_g min(count_a(g), count_b(g)) — the integer the scalar q-gram
/// comparator derives through its count map.
size_t SortedMultisetIntersection(const std::vector<std::string_view>& a,
                                  const std::vector<std::string_view>& b) {
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

double QGramKernel(std::string_view a, std::string_view b, size_t q,
                   SimScratch& scratch) {
  if (a.empty() && b.empty()) return 1.0;
  SortedPaddedGramViews(a, q, scratch.pad_a, scratch.items_a);
  SortedPaddedGramViews(b, q, scratch.pad_b, scratch.items_b);
  // With '#' padding and q >= 2 both gram lists are non-empty, so the
  // scalar's empty-list branches are unreachable here.
  size_t intersection =
      SortedMultisetIntersection(scratch.items_a, scratch.items_b);
  return 2.0 * static_cast<double>(intersection) /
         static_cast<double>(scratch.items_a.size() +
                             scratch.items_b.size());
}

double QGram2Kernel(std::string_view a, std::string_view b, uint64_t sig_a,
                    uint64_t sig_b, SimScratch& scratch) {
  if (a.empty() && b.empty()) return 1.0;
  // Zero signature AND proves an empty padded-2-gram intersection; the
  // scalar formula then evaluates to exactly 2·0/(|ga|+|gb|) = 0.0.
  if ((sig_a & sig_b) == 0) return 0.0;
  return QGramKernel(a, b, 2, scratch);
}

double QGram3Kernel(std::string_view a, std::string_view b, uint64_t,
                    uint64_t, SimScratch& scratch) {
  // Signatures are 2-gram-based and say nothing exact about 3-grams.
  if (a.empty() && b.empty()) return 1.0;
  return QGramKernel(a, b, 3, scratch);
}

/// Whitespace token views of `s`, sorted and deduplicated — the set the
/// scalar token comparators build as std::set<std::string>.
void SortedUniqueTokenViews(std::string_view s,
                            std::vector<std::string_view>& items) {
  items.clear();
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) items.push_back(s.substr(start, i - start));
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
}

/// Set intersection size of two sorted unique view sequences.
size_t SortedSetIntersection(const std::vector<std::string_view>& a,
                             const std::vector<std::string_view>& b) {
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

double JaccardKernel(std::string_view a, std::string_view b, uint64_t,
                     uint64_t, SimScratch& scratch) {
  SortedUniqueTokenViews(a, scratch.items_a);
  SortedUniqueTokenViews(b, scratch.items_b);
  if (scratch.items_a.empty() && scratch.items_b.empty()) return 1.0;
  size_t intersection =
      SortedSetIntersection(scratch.items_a, scratch.items_b);
  size_t uni = scratch.items_a.size() + scratch.items_b.size() - intersection;
  return uni == 0 ? 1.0
                  : static_cast<double>(intersection) /
                        static_cast<double>(uni);
}

double DiceKernel(std::string_view a, std::string_view b, uint64_t, uint64_t,
                  SimScratch& scratch) {
  SortedUniqueTokenViews(a, scratch.items_a);
  SortedUniqueTokenViews(b, scratch.items_b);
  if (scratch.items_a.empty() && scratch.items_b.empty()) return 1.0;
  if (scratch.items_a.empty() || scratch.items_b.empty()) return 0.0;
  size_t intersection =
      SortedSetIntersection(scratch.items_a, scratch.items_b);
  return 2.0 * static_cast<double>(intersection) /
         static_cast<double>(scratch.items_a.size() +
                             scratch.items_b.size());
}

double CosineKernel(std::string_view a, std::string_view b, uint64_t sig_a,
                    uint64_t sig_b, SimScratch& scratch) {
  if (a.empty() && b.empty()) return 1.0;
  // Empty gram intersection → dot 0 over positive norms → exactly 0.0.
  if ((sig_a & sig_b) == 0) return 0.0;
  SortedPaddedGramViews(a, 2, scratch.pad_a, scratch.items_a);
  SortedPaddedGramViews(b, 2, scratch.pad_b, scratch.items_b);
  const std::vector<std::string_view>& ga = scratch.items_a;
  const std::vector<std::string_view>& gb = scratch.items_b;
  // The scalar iterates its count maps in ascending gram order, summing
  // na (and dot at shared grams) over a's grams and nb over b's. Runs
  // of the sorted views visit the same grams in the same order with the
  // same integer counts, so every accumulator adds the same terms in
  // the same sequence.
  double dot = 0.0, na = 0.0, nb = 0.0;
  size_t i = 0, j = 0;
  while (i < ga.size()) {
    size_t i_end = i + 1;
    while (i_end < ga.size() && ga[i_end] == ga[i]) ++i_end;
    double w = static_cast<double>(i_end - i);
    na += w * w;
    while (j < gb.size() && gb[j] < ga[i]) ++j;
    if (j < gb.size() && gb[j] == ga[i]) {
      size_t j_end = j + 1;
      while (j_end < gb.size() && gb[j_end] == gb[j]) ++j_end;
      dot += w * static_cast<double>(j_end - j);
    }
    i = i_end;
  }
  for (j = 0; j < gb.size();) {
    size_t j_end = j + 1;
    while (j_end < gb.size() && gb[j_end] == gb[j]) ++j_end;
    double w = static_cast<double>(j_end - j);
    nb += w * w;
    j = j_end;
  }
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double NumericKernel(std::string_view a, std::string_view b, uint64_t,
                     uint64_t, SimScratch&) {
  // Mirrors NumericComparator with the registry's scale of 1.0.
  double x = 0.0, y = 0.0;
  if (!ParseDouble(a, &x) || !ParseDouble(b, &y)) {
    return a == b ? 1.0 : 0.0;
  }
  return std::max(0.0, 1.0 - std::abs(x - y) / 1.0);
}

double NumericRelKernel(std::string_view a, std::string_view b, uint64_t,
                        uint64_t, SimScratch&) {
  double x = 0.0, y = 0.0;
  if (!ParseDouble(a, &x) || !ParseDouble(b, &y)) {
    return a == b ? 1.0 : 0.0;
  }
  double denom = std::max(std::abs(x), std::abs(y));
  if (denom == 0.0) return 1.0;
  return std::max(0.0, 1.0 - std::abs(x - y) / denom);
}

struct KernelEntry {
  const char* name;
  ColumnarKernelFn fn;
};

/// Sorted by name. monge_elkan and soundex have no kernel: the
/// matcher calls their Comparator over the arena texts instead.
constexpr KernelEntry kKernels[] = {
    {"cosine", &CosineKernel},
    {"damerau", &DamerauKernel},
    {"dice", &DiceKernel},
    {"exact", &ExactKernel},
    {"exact_nocase", &ExactNoCaseKernel},
    {"hamming", &HammingKernel},
    {"jaccard", &JaccardKernel},
    {"jaro", &JaroKernel},
    {"jaro_winkler", &JaroWinklerKernel},
    {"lcs", &LcsKernel},
    {"levenshtein", &LevenshteinKernel},
    {"numeric", &NumericKernel},
    {"numeric_rel", &NumericRelKernel},
    {"prefix", &PrefixKernel},
    {"qgram2", &QGram2Kernel},
    {"qgram3", &QGram3Kernel},
};

}  // namespace

uint64_t QGram2Signature(std::string_view s) {
  uint64_t sig = 0;
  unsigned char prev = '#';
  for (char c : s) {
    sig |= GramBit(prev, static_cast<unsigned char>(c));
    prev = static_cast<unsigned char>(c);
  }
  sig |= GramBit(prev, '#');
  return sig;
}

ColumnarKernelFn FindColumnarKernel(std::string_view comparator_name) {
  for (const KernelEntry& entry : kKernels) {
    if (comparator_name == entry.name) return entry.fn;
  }
  return nullptr;
}

std::vector<std::string> ColumnarKernelNames() {
  std::vector<std::string> names;
  names.reserve(std::size(kKernels));
  for (const KernelEntry& entry : kKernels) names.emplace_back(entry.name);
  return names;
}

}  // namespace pdd
