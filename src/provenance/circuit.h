#ifndef LSHAP_PROVENANCE_CIRCUIT_H_
#define LSHAP_PROVENANCE_CIRCUIT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "relational/database.h"

namespace lshap {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

// Counting vectors use long double: counts-by-size reach binomial magnitudes
// (~2^n for n-variable lineages), and the 64-bit mantissa keeps the Shapley
// weights accurate for the lineage sizes DBShap exhibits (n ≤ a few hundred).
using CountVec = std::vector<long double>;

// A node of a decomposable counting circuit:
//  - kDecision(var, hi, lo) ≡ (var ∧ hi) ∨ (¬var ∧ lo); the two branches are
//    mutually exclusive, making the circuit deterministic.
//  - kAnd children have pairwise disjoint variable supports (decomposable).
//  - kOr children also have pairwise disjoint supports ("disjoint OR");
//    although not deterministic, counting by size stays exact through the
//    complement identity  #(∨ᵢ fᵢ) = total − ∏ᵢ (totalᵢ − #fᵢ)  under the
//    size-indexed convolution.
// Together these properties admit model counting by size in polynomial time,
// which is what the exact Shapley algorithm of Deutch et al. (SIGMOD 2022)
// exploits.
struct CircuitNode {
  enum class Kind : uint8_t { kTrue, kFalse, kDecision, kAnd, kOr };

  Kind kind = Kind::kFalse;
  FactId var = kInvalidFactId;       // kDecision only
  NodeId hi = kInvalidNode;          // kDecision: var = true branch
  NodeId lo = kInvalidNode;          // kDecision: var = false branch
  std::vector<NodeId> children;      // kAnd / kOr
  std::vector<FactId> vars;          // sorted variable support of subtree
};

// An arena of circuit nodes with one distinguished root.
class Circuit {
 public:
  Circuit();

  NodeId TrueNode() const { return 0; }
  NodeId FalseNode() const { return 1; }

  NodeId AddDecision(FactId var, NodeId hi, NodeId lo);
  NodeId AddAnd(std::vector<NodeId> children);
  // Children must have pairwise disjoint variable supports.
  NodeId AddOr(std::vector<NodeId> children);

  const CircuitNode& node(NodeId id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }

  void set_root(NodeId root) { root_ = root; }
  NodeId root() const { return root_; }

  // Number of satisfying assignments of the subtree under `id`, per number
  // of true variables, with variable `forced` (if present in the support)
  // fixed to `forced_value` and excluded from the counting domain. The
  // returned vector has length |vars(id) \ {forced}| + 1.
  CountVec CountsBySize(NodeId id, FactId forced, bool forced_value) const;

  // Plain model counting by size over vars(id).
  CountVec CountsBySize(NodeId id) const;

 private:
  friend class CountingSession;

  std::vector<CircuitNode> nodes_;
  NodeId root_ = kInvalidNode;
};

// A reusable model-counting session over one circuit. The unforced counts of
// every node are computed once and shared across forced-variable queries, so
// the per-fact Shapley loop only re-traverses the nodes whose support
// actually contains the fact.
class CountingSession {
 public:
  explicit CountingSession(const Circuit* circuit);

  // Counts over vars(id), memoized for the session's lifetime.
  const CountVec& Unforced(NodeId id);

  // Counts over vars(id) \ {forced} with `forced` fixed; falls back to the
  // shared unforced counts on subtrees not containing the variable.
  CountVec Forced(NodeId id, FactId forced, bool forced_value);

 private:
  struct ForcedCtx {
    FactId forced;
    bool forced_value;
    std::unordered_map<NodeId, CountVec> memo;
  };
  const CountVec& UnforcedImpl(NodeId id);
  CountVec ForcedImpl(NodeId id, ForcedCtx& ctx);

  const Circuit* circuit_;
  std::unordered_map<NodeId, CountVec> base_;
};

// Returns the binomial row [C(m,0), ..., C(m,m)] in long double. Rows are
// built once per process and shared; after a thread's first request for
// `m`, later requests from that thread take no lock.
const CountVec& BinomialRow(size_t m);

// Re-expresses counts over a variable set of size `from` as counts over a
// superset of size `to`: each of the (to - from) extra variables is free, so
// new[k] = Σ_j c[j]·C(to-from, k-j).
CountVec ExtendCounts(const CountVec& c, size_t to);

}  // namespace lshap

#endif  // LSHAP_PROVENANCE_CIRCUIT_H_
