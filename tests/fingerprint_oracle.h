#ifndef SERENA_TESTS_FINGERPRINT_ORACLE_H_
#define SERENA_TESTS_FINGERPRINT_ORACLE_H_

// The uncached operator fingerprint, kept in test code as the oracle of
// the per-node cache behind `PlanNode::FingerprintHash` and
// `obs::OperatorFingerprint`: render the subtree, hash `kind|rendering`,
// format as 16 hex digits — exactly what every call computed before the
// cache existed.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "algebra/plan.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "obs/stats.h"

namespace serena {
namespace testing_oracle {

inline std::string UncachedFingerprint(const PlanNode& node) {
  std::string key = PlanKindToString(node.kind());
  key.push_back('|');
  key += node.ToString();
  return StringFormat("%016llx",
                      static_cast<unsigned long long>(StableHash(key)));
}

/// Checks every node of `plan` (shared subtrees once) against the
/// oracle; returns the number of distinct nodes checked.
inline std::size_t ExpectCachedFingerprintsMatchOracle(const PlanPtr& plan) {
  std::size_t checked = 0;
  std::unordered_set<const PlanNode*> seen;
  std::vector<const PlanNode*> pending = {plan.get()};
  while (!pending.empty()) {
    const PlanNode* node = pending.back();
    pending.pop_back();
    if (!seen.insert(node).second) continue;
    const std::string expected = UncachedFingerprint(*node);
    // Twice: the first call may fill the cache, the second must read it.
    EXPECT_EQ(obs::OperatorFingerprint(*node), expected) << node->ToString();
    EXPECT_EQ(obs::OperatorFingerprint(*node), expected) << node->ToString();
    EXPECT_EQ(StringFormat("%016llx", static_cast<unsigned long long>(
                                          node->FingerprintHash())),
              expected)
        << node->ToString();
    ++checked;
    for (const PlanPtr& child : node->children()) {
      pending.push_back(child.get());
    }
  }
  return checked;
}

}  // namespace testing_oracle
}  // namespace serena

#endif  // SERENA_TESTS_FINGERPRINT_ORACLE_H_
