#include "mc/liveness.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iterator>
#include <set>
#include <unordered_map>
#include <utility>

#include "mc/pool.hpp"

namespace ekbd::mc {

using ekbd::sim::PendingEvent;
using ekbd::sim::ProcessId;

namespace {

// Same literals as explorer.cpp so replay_counterexample round-trips see
// identical messages.
constexpr const char* kDeadlock = "deadlock: no eligible events but goal not reached";
constexpr const char* kDiverged = "non-deterministic factory: replay diverged";
constexpr const char* kAmbiguous =
    "config: ambiguous event fingerprints (two eligible events share a label)";

constexpr std::uint32_t kNoState = 0xFFFFFFFFu;
constexpr std::uint64_t kMessageLabelBit = 1ULL << 63;

using Labels = std::vector<std::uint64_t>;

/// Semantic label of one eligible event. Messages are identified by their
/// directed channel (per-channel FIFO: at most one eligible per channel);
/// timers and scheduled closures by the world's fingerprint, tagged by
/// kind so a world may reuse small role codes across kinds.
std::uint64_t label_of(const LivenessWorld& w, const PendingEvent& ev) {
  if (ev.kind == PendingEvent::Kind::kMessage) return kMessageLabelBit | ev.channel();
  const std::uint64_t tag = ev.kind == PendingEvent::Kind::kTimer ? 1 : 2;
  return (tag << 60) | (w.event_fingerprint(ev) & ((1ULL << 60) - 1));
}

/// The process an event *activates* (runs a handler of) — the unit the
/// per-actor and k-bounded daemon predicates count. Scheduled closures
/// are harness choices, not process activations.
ProcessId actor_of(const PendingEvent& ev) {
  switch (ev.kind) {
    case PendingEvent::Kind::kMessage:
      return ev.to;
    case PendingEvent::Kind::kTimer:
      return ev.owner;
    case PendingEvent::Kind::kScheduled:
      return ekbd::sim::kNoProcess;
  }
  return ekbd::sim::kNoProcess;
}

/// Eligible events honoring Options::include_timers (mirrors explorer.cpp).
std::vector<PendingEvent> choices(LivenessWorld& world, const Options& opt) {
  std::vector<PendingEvent> evs = world.simulator().eligible_events();
  if (!opt.include_timers) {
    std::erase_if(evs,
                  [](const PendingEvent& ev) { return ev.kind == PendingEvent::Kind::kTimer; });
  }
  return evs;
}

/// Tick-free semantic fingerprint: world state + simulator state + the
/// sorted labels of pending non-message events (the simulator reports
/// only their count; the labels disambiguate e.g. a pending crash choice
/// from a pending re-hungry choice).
void build_key(LivenessWorld& world, std::vector<std::uint64_t>& out) {
  out.clear();
  world.state_key(out);
  world.simulator().controlled_state_key(out);
  const auto labels = static_cast<std::ptrdiff_t>(out.size());
  for (const PendingEvent& ev : world.simulator().eligible_events()) {
    if (ev.kind != PendingEvent::Kind::kMessage) out.push_back(label_of(world, ev));
  }
  std::sort(out.begin() + labels, out.end());
}

struct KeyHash {
  std::size_t operator()(const std::vector<std::uint64_t>& k) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint64_t w : k) {
      h ^= w;
      h *= 1099511628211ULL;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

/// One state of the semantic graph. Edges are aligned triples
/// (elig_labels[i], elig_actors[i], succ[i]); succ is kNoState when the
/// edge ended its schedule (violation) instead of reaching a state. The
/// key itself lives only in the dedup index — it is never needed again
/// once the state has an id. Witness paths are stored as BFS-tree parent
/// pointers carrying both the semantic label (for counterexamples and
/// fairness) and the concrete event id: deterministic factories allocate
/// identical ids on identical prefixes, so a recorded id is valid in any
/// fresh world and replays skip eligible-set scans entirely.
struct StateRec {
  std::uint64_t hungry = 0;
  std::uint32_t parent = kNoState;
  std::uint64_t parent_label = 0;
  std::uint64_t parent_event = 0;  ///< event id fired at parent to get here
  std::uint32_t depth = 0;
  Labels elig_labels;
  std::vector<ProcessId> elig_actors;
  std::vector<std::uint32_t> succ;
  bool terminal_done = false;
  bool horizon = false;
};

struct EdgeOut {
  std::uint64_t label = 0;
  std::uint64_t event_id = 0;  ///< replay-stable id of the fired event
  ProcessId actor = ekbd::sim::kNoProcess;
  std::vector<std::uint64_t> key;  ///< successor fingerprint (violation: unused)
  std::uint64_t hungry = 0;
  std::string violation;  ///< non-empty: check() failed, edge ends its schedule
};

struct Expansion {
  bool terminal = false;
  bool done = false;
  bool budget_stopped = false;
  std::string error;  ///< kDiverged or kAmbiguous
  std::vector<EdgeOut> edges;
};

/// Budget shared by all expansion jobs (same accounting as explorer.cpp:
/// frontier fires are nodes, witness re-execution is replays).
struct Budget {
  explicit Budget(std::uint64_t cap) : max_nodes(cap) {}
  const std::uint64_t max_nodes;
  std::atomic<std::uint64_t> nodes{0};
  std::atomic<std::uint64_t> replays{0};
  std::atomic<bool> exhausted{false};

  [[nodiscard]] bool spend(std::atomic<std::uint64_t>& counter) {
    if (nodes.load(std::memory_order_relaxed) + replays.load(std::memory_order_relaxed) >=
        max_nodes) {
      exhausted.store(true, std::memory_order_relaxed);
      return false;
    }
    counter.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// `n` spend() calls at once when all of them would succeed (one shared
  /// write instead of n); false, spending nothing, when any would fail.
  [[nodiscard]] bool spend_all(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
    if (nodes.load(std::memory_order_relaxed) + replays.load(std::memory_order_relaxed) + n >
        max_nodes) {
      return false;
    }
    counter.fetch_add(n, std::memory_order_relaxed);
    return true;
  }
};

/// Witness label path of a state: walk the BFS tree to the root.
Labels witness_labels(const std::vector<StateRec>& states, std::uint32_t id) {
  Labels out;
  for (std::uint32_t s = id; states[s].parent != kNoState; s = states[s].parent) {
    out.push_back(states[s].parent_label);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

/// Witness event-id path of a state — the replay-fast form (see StateRec).
std::vector<std::uint64_t> witness_ids(const std::vector<StateRec>& states, std::uint32_t id) {
  std::vector<std::uint64_t> out;
  for (std::uint32_t s = id; states[s].parent != kNoState; s = states[s].parent) {
    out.push_back(states[s].parent_event);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

/// Rebuild a world and re-fire a recorded event-id path. Returns nullptr
/// if an id is not eligible (divergence) or the budget ran out (flagged).
std::unique_ptr<LivenessWorld> replay_ids(const LivenessWorldFactory& factory,
                                          const std::vector<std::uint64_t>& ids, Budget& budget,
                                          bool* stopped) {
  auto world = factory();
  world->simulator().start();
  // Pay for the whole path up front when it fits, else event by event so
  // the budget trips at exactly the same event. Either way a path that
  // diverges has paid for the events up to and including the failed one.
  const bool prepaid = budget.spend_all(budget.replays, ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!prepaid && !budget.spend(budget.replays)) {
      if (stopped != nullptr) *stopped = true;
      return nullptr;
    }
    if (!world->simulator().execute_event(ids[i])) {
      if (prepaid) budget.replays.fetch_sub(ids.size() - i - 1, std::memory_order_relaxed);
      return nullptr;
    }
  }
  return world;
}

/// Expand one state: rebuild at its witness, fire every eligible choice
/// (label order), fingerprint each successor. Stateless like the DFS
/// explorer — siblings replay the witness in private worlds; the last
/// sibling reuses the expansion world in place.
Expansion expand(const LivenessWorldFactory& factory, const Options& opt,
                 const std::vector<std::uint64_t>& witness, Budget& budget) {
  Expansion ex;
  bool stopped = false;
  auto world = replay_ids(factory, witness, budget, &stopped);
  if (world == nullptr) {
    if (stopped) {
      ex.budget_stopped = true;
    } else {
      ex.error = kDiverged;
    }
    return ex;
  }

  std::vector<PendingEvent> evs = choices(*world, opt);
  std::vector<std::pair<std::uint64_t, PendingEvent>> labeled;
  labeled.reserve(evs.size());
  for (const PendingEvent& ev : evs) labeled.emplace_back(label_of(*world, ev), ev);
  std::sort(labeled.begin(), labeled.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i + 1 < labeled.size(); ++i) {
    if (labeled[i].first == labeled[i + 1].first) {
      ex.error = kAmbiguous;
      return ex;
    }
  }

  if (labeled.empty()) {
    ex.terminal = true;
    ex.done = world->done();
    return ex;
  }

  ex.edges.reserve(labeled.size());
  std::vector<std::uint64_t> key;  // built here, copied out at its exact size
  for (std::size_t i = 0; i < labeled.size(); ++i) {
    std::unique_ptr<LivenessWorld> w;
    if (i + 1 < labeled.size()) {
      w = replay_ids(factory, witness, budget, &stopped);
      if (w == nullptr) {
        if (stopped) {
          ex.budget_stopped = true;
        } else {
          ex.error = kDiverged;
        }
        return ex;
      }
    } else {
      w = std::move(world);
    }
    if (!budget.spend(budget.nodes)) {
      ex.budget_stopped = true;
      return ex;
    }
    EdgeOut edge;
    edge.label = labeled[i].first;
    edge.event_id = labeled[i].second.id;
    edge.actor = actor_of(labeled[i].second);
    // Deterministic factories allocate identical event ids on identical
    // prefixes, so the id observed in the expansion world is valid in the
    // sibling rebuild too.
    if (!w->simulator().execute_event(labeled[i].second.id)) {
      ex.error = kDiverged;
      return ex;
    }
    edge.violation = w->check();
    if (edge.violation.empty()) {
      edge.hungry = w->hungry_mask();
      build_key(*w, key);
      edge.key.assign(key.begin(), key.end());
    }
    ex.edges.push_back(std::move(edge));
  }
  return ex;
}

// ------------------------------------------------------------------ SCCs --

/// Iterative Tarjan over the explicit graph. Returns per-state component
/// ids; components are numbered in reverse topological order, but the
/// analysis below only uses membership, so the numbering is irrelevant
/// (and deterministic either way).
std::vector<std::uint32_t> tarjan(const std::vector<StateRec>& states) {
  const std::size_t n = states.size();
  std::vector<std::uint32_t> comp(n, kNoState);
  std::vector<std::uint32_t> index(n, kNoState);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> stack;
  std::uint32_t next_index = 0;
  std::uint32_t next_comp = 0;

  struct Frame {
    std::uint32_t v;
    std::size_t edge;
  };
  std::vector<Frame> call;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kNoState) continue;
    call.push_back({root, 0});
    while (!call.empty()) {
      Frame& f = call.back();
      const std::uint32_t v = f.v;
      if (f.edge == 0) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      bool descended = false;
      while (f.edge < states[v].succ.size()) {
        const std::uint32_t w = states[v].succ[f.edge];
        ++f.edge;
        if (w == kNoState) continue;
        if (index[w] == kNoState) {
          call.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        for (;;) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = next_comp;
          if (w == v) break;
        }
        ++next_comp;
      }
      call.pop_back();
      if (!call.empty()) {
        const std::uint32_t parent = call.back().v;
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }
  return comp;
}

/// Everything known about one candidate SCC.
struct Component {
  std::vector<std::uint32_t> members;  ///< state ids, ascending
  bool nontrivial = false;             ///< contains a cycle
  std::uint64_t hungry_core = 0;       ///< processes hungry at every state
};

/// BFS a label path from `from` to `to` using only edges internal to the
/// component. Deterministic: states expand in member order, edges in
/// label order. Returns the labels; empty when from == to.
Labels route(const std::vector<StateRec>& states, const std::set<std::uint32_t>& scc,
             std::uint32_t from, std::uint32_t to) {
  if (from == to) return {};
  std::unordered_map<std::uint32_t, std::pair<std::uint32_t, std::uint64_t>> pred;
  std::deque<std::uint32_t> queue{from};
  pred[from] = {kNoState, 0};
  while (!queue.empty()) {
    const std::uint32_t v = queue.front();
    queue.pop_front();
    const StateRec& s = states[v];
    for (std::size_t i = 0; i < s.succ.size(); ++i) {
      const std::uint32_t w = s.succ[i];
      if (w == kNoState || scc.count(w) == 0 || pred.count(w) != 0) continue;
      pred[w] = {v, s.elig_labels[i]};
      if (w == to) {
        Labels out;
        for (std::uint32_t x = to; x != from; x = pred[x].first) out.push_back(pred[x].second);
        std::reverse(out.begin(), out.end());
        return out;
      }
      queue.push_back(w);
    }
  }
  assert(false && "SCC not strongly connected");
  return {};
}

/// Walk a label path inside the component, returning the end state.
std::uint32_t walk(const std::vector<StateRec>& states, std::uint32_t from,
                   const Labels& labels) {
  std::uint32_t cur = from;
  for (std::uint64_t lbl : labels) {
    const StateRec& s = states[cur];
    const auto it = std::lower_bound(s.elig_labels.begin(), s.elig_labels.end(), lbl);
    assert(it != s.elig_labels.end() && *it == lbl);
    cur = s.succ[static_cast<std::size_t>(it - s.elig_labels.begin())];
  }
  return cur;
}

/// Construct the witness cycle for a fair hungry component: a closed
/// label walk from its minimal state that fires every internally-firable
/// label at least once — the "fairest possible" schedule confined to the
/// component. Under kWeakEvent/kKBounded the fired set covers every
/// always-eligible label (that is what the fairness check established),
/// so repeating this cycle forever is a genuine weakly-fair infinite run.
Labels witness_cycle(const std::vector<StateRec>& states, const Component& c,
                     const std::set<std::uint64_t>& internally_fired) {
  const std::set<std::uint32_t> scc(c.members.begin(), c.members.end());
  std::set<std::uint64_t> required = internally_fired;

  const std::uint32_t home = c.members.front();
  std::uint32_t cur = home;
  Labels cycle;
  auto advance = [&](const Labels& seg) {
    for (std::uint64_t lbl : seg) required.erase(lbl);
    cycle.insert(cycle.end(), seg.begin(), seg.end());
    cur = walk(states, cur, seg);
  };

  while (!required.empty()) {
    const std::uint64_t lbl = *required.begin();
    // The firing site: the least member state with an internal edge
    // labeled lbl (fairness evaluation guaranteed one exists).
    std::uint32_t site = kNoState;
    for (std::uint32_t v : c.members) {
      const StateRec& s = states[v];
      const auto it = std::lower_bound(s.elig_labels.begin(), s.elig_labels.end(), lbl);
      if (it != s.elig_labels.end() && *it == lbl) {
        const std::uint32_t w = s.succ[static_cast<std::size_t>(it - s.elig_labels.begin())];
        if (w != kNoState && scc.count(w) != 0) {
          site = v;
          break;
        }
      }
    }
    assert(site != kNoState && "fair component lost its firing site");
    advance(route(states, scc, cur, site));
    advance({lbl});
  }
  advance(route(states, scc, cur, home));
  assert(cur == home && !cycle.empty());
  return cycle;
}

/// Does the witness cycle admit a k-bounded daemon? For every pair of
/// processes activated in (or continuously activatable during) the
/// cycle: between consecutive activations of p, q is activated at most k
/// times — evaluated cyclically, i.e. over the infinite repetition.
bool cycle_is_k_bounded(const std::vector<StateRec>& states, const Component& c,
                        const Labels& cycle, int k) {
  // Processes with an eligible event at every component state: the
  // daemon owes them activations.
  std::set<ProcessId> owed;
  bool first = true;
  for (std::uint32_t v : c.members) {
    std::set<ProcessId> here;
    for (ProcessId a : states[v].elig_actors) {
      if (a != ekbd::sim::kNoProcess) here.insert(a);
    }
    if (first) {
      owed = std::move(here);
      first = false;
    } else {
      std::set<ProcessId> inter;
      std::set_intersection(owed.begin(), owed.end(), here.begin(), here.end(),
                            std::inserter(inter, inter.begin()));
      owed = std::move(inter);
    }
  }

  // Activation sequence of one lap.
  std::vector<ProcessId> acts;
  std::uint32_t cur = c.members.front();
  for (std::uint64_t lbl : cycle) {
    const StateRec& s = states[cur];
    const auto it = std::lower_bound(s.elig_labels.begin(), s.elig_labels.end(), lbl);
    const auto idx = static_cast<std::size_t>(it - s.elig_labels.begin());
    if (s.elig_actors[idx] != ekbd::sim::kNoProcess) acts.push_back(s.elig_actors[idx]);
    cur = s.succ[idx];
  }

  for (ProcessId p : owed) {
    if (std::find(acts.begin(), acts.end(), p) == acts.end()) return false;  // starved outright
  }
  // Doubled lap covers every wrap-around window between p-activations.
  std::vector<ProcessId> doubled = acts;
  doubled.insert(doubled.end(), acts.begin(), acts.end());
  for (ProcessId p : owed) {
    std::unordered_map<ProcessId, int> between;
    bool seen_p = false;
    for (ProcessId a : doubled) {
      if (a == p) {
        seen_p = true;
        between.clear();
        continue;
      }
      if (!seen_p) continue;
      if (++between[a] > k) return false;
    }
  }
  return true;
}

/// A recorded safety/deadlock candidate, merged lexicographically least.
struct SafetyCandidate {
  bool found = false;
  std::string message;
  Labels path;
};

void offer_safety(SafetyCandidate& best, std::string message, Labels path) {
  if (!best.found || std::lexicographical_compare(path.begin(), path.end(), best.path.begin(),
                                                  best.path.end())) {
    best.found = true;
    best.message = std::move(message);
    best.path = std::move(path);
  }
}

const char* fairness_name(Fairness f) {
  switch (f) {
    case Fairness::kNone:
      return "any-cycle";
    case Fairness::kWeakActor:
      return "weak-fairness(actor)";
    case Fairness::kWeakEvent:
      return "weak-fairness(event)";
    case Fairness::kKBounded:
      return "k-bounded-daemon";
  }
  return "?";
}

}  // namespace

Result check_liveness(const LivenessWorldFactory& factory, const Options& options) {
  const auto t0 = std::chrono::steady_clock::now();
  Result result;
  if (options.sleep_sets) {
    result.config_error = kLivenessSleepSetRefusal;
    return result;
  }
  if (options.random_walks > 0) {
    result.config_error = kLivenessRandomWalkRefusal;
    return result;
  }

  WorkStealingPool pool(WorkStealingPool::resolve(options.threads));
  Budget budget(options.max_nodes);
  std::vector<StateRec> states;
  std::unordered_map<std::vector<std::uint64_t>, std::uint32_t, KeyHash> index;
  SafetyCandidate safety;
  std::uint64_t completed = 0;
  std::uint64_t truncated = 0;

  {
    auto world = factory();
    world->simulator().start();
    StateRec root;
    std::vector<std::uint64_t> root_key;
    build_key(*world, root_key);
    root.hungry = world->hungry_mask();
    index.emplace(std::move(root_key), 0);
    states.push_back(std::move(root));
  }

  std::vector<std::uint32_t> frontier{0};
  while (!frontier.empty() && !budget.exhausted.load(std::memory_order_relaxed) &&
         result.config_error.empty() && !(options.fail_fast && safety.found)) {
    std::vector<Expansion> expansions(frontier.size());
    std::vector<std::vector<std::uint64_t>> witnesses(frontier.size());
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      witnesses[i] = witness_ids(states, frontier[i]);
    }
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      pool.submit([&factory, &options, &budget, &expansions, &witnesses, i] {
        expansions[i] = expand(factory, options, witnesses[i], budget);
      });
    }
    pool.wait_idle();

    // Sequential deterministic merge, frontier order then label order —
    // state ids, parents and witnesses are thread-count-independent.
    std::vector<std::uint32_t> next;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const std::uint32_t v = frontier[i];
      Expansion& ex = expansions[i];
      if (ex.budget_stopped) continue;  // flagged; counters now best-effort
      if (ex.error == kAmbiguous) {
        result.config_error = kAmbiguous;
        break;
      }
      if (!ex.error.empty()) {
        offer_safety(safety, ex.error, witnesses[i]);
        continue;
      }
      if (ex.terminal) {
        states[v].terminal_done = ex.done;
        if (ex.done) {
          ++completed;
        } else {
          offer_safety(safety, kDeadlock, witnesses[i]);
        }
        continue;
      }
      states[v].elig_labels.reserve(ex.edges.size());
      states[v].elig_actors.reserve(ex.edges.size());
      states[v].succ.reserve(ex.edges.size());
      for (EdgeOut& edge : ex.edges) {
        states[v].elig_labels.push_back(edge.label);
        states[v].elig_actors.push_back(edge.actor);
        if (!edge.violation.empty()) {
          // Safety candidate paths are event-id paths, directly replayable.
          Labels path = witnesses[i];
          path.push_back(edge.event_id);
          offer_safety(safety, std::move(edge.violation), std::move(path));
          states[v].succ.push_back(kNoState);
          continue;
        }
        auto [it, inserted] =
            index.emplace(std::move(edge.key), static_cast<std::uint32_t>(states.size()));
        if (inserted) {
          StateRec s;
          s.hungry = edge.hungry;
          s.parent = v;
          s.parent_label = edge.label;
          s.parent_event = edge.event_id;
          s.depth = states[v].depth + 1;
          if (s.depth >= options.max_depth) {
            s.horizon = true;
            ++truncated;
          } else {
            next.push_back(it->second);
          }
          states.push_back(std::move(s));
        }
        states[v].succ.push_back(it->second);
      }
    }
    frontier = std::move(next);
  }

  result.nodes_executed = budget.nodes.load();
  result.replayed_events = budget.replays.load();
  result.budget_exhausted = budget.exhausted.load();
  result.unique_states = states.size();
  result.paths_completed = completed;
  result.paths_truncated = truncated;
  for (const StateRec& s : states) {
    result.max_depth_seen = std::max<std::size_t>(result.max_depth_seen, s.depth);
  }

  // ---- cycle analysis (on whatever portion of the graph was built:
  // every reported cycle uses only real, fully-expanded edges, so a
  // violation found under a tripped budget is still a true violation;
  // only the *absence* of one requires the complete graph).
  Labels best_stem;
  std::vector<std::uint64_t> best_stem_ids;
  Labels best_cycle;
  std::uint64_t best_hungry = 0;
  if (result.config_error.empty()) {
    const std::vector<std::uint32_t> comp = tarjan(states);
    std::uint32_t ncomp = 0;
    for (std::uint32_t c : comp) {
      if (c != kNoState) ncomp = std::max(ncomp, c + 1);
    }
    std::vector<Component> comps(ncomp);
    for (std::uint32_t v = 0; v < states.size(); ++v) comps[comp[v]].members.push_back(v);
    for (Component& c : comps) {
      c.hungry_core = ~0ULL;
      for (std::uint32_t v : c.members) {
        c.hungry_core &= states[v].hungry;
        if (!c.nontrivial) {
          const StateRec& s = states[v];
          for (std::size_t e = 0; e < s.succ.size(); ++e) {
            if (s.succ[e] != kNoState && comp[s.succ[e]] == comp[v] &&
                (c.members.size() > 1 || s.succ[e] == v)) {
              c.nontrivial = true;
              break;
            }
          }
        }
      }
      if (c.members.size() > 1) c.nontrivial = true;
    }

    for (const Component& c : comps) {
      if (!c.nontrivial) continue;
      ++result.scc_count;
      if (c.hungry_core == 0) continue;

      // Fairness: which labels/actors does a run confined to this
      // component owe, and are they all served by internal edges?
      // (Eligibility is monotonic — an unserved always-eligible event
      // stays eligible forever — so this test is exact, not heuristic.)
      std::set<std::uint64_t> union_labels;
      std::set<std::uint64_t> fired_labels;
      std::set<ProcessId> union_actors;
      std::set<ProcessId> fired_actors;
      const std::set<std::uint32_t> members(c.members.begin(), c.members.end());
      for (std::uint32_t v : c.members) {
        const StateRec& s = states[v];
        for (std::size_t e = 0; e < s.succ.size(); ++e) {
          union_labels.insert(s.elig_labels[e]);
          if (s.elig_actors[e] != ekbd::sim::kNoProcess) union_actors.insert(s.elig_actors[e]);
          if (s.succ[e] != kNoState && members.count(s.succ[e]) != 0) {
            fired_labels.insert(s.elig_labels[e]);
            if (s.elig_actors[e] != ekbd::sim::kNoProcess) fired_actors.insert(s.elig_actors[e]);
          }
        }
      }
      bool fair = true;
      switch (options.fairness) {
        case Fairness::kNone:
          break;
        case Fairness::kWeakActor:
          fair = std::includes(fired_actors.begin(), fired_actors.end(), union_actors.begin(),
                               union_actors.end());
          break;
        case Fairness::kWeakEvent:
        case Fairness::kKBounded:
          fair = std::includes(fired_labels.begin(), fired_labels.end(), union_labels.begin(),
                               union_labels.end());
          break;
      }
      if (!fair) continue;

      Labels cycle = witness_cycle(states, c, fired_labels);
      if (options.fairness == Fairness::kKBounded &&
          !cycle_is_k_bounded(states, c, cycle, options.fairness_k)) {
        continue;
      }
      ++result.fair_cycles;

      Labels stem = witness_labels(states, c.members.front());
      Labels full = stem;
      full.insert(full.end(), cycle.begin(), cycle.end());
      Labels best_full = best_stem;
      best_full.insert(best_full.end(), best_cycle.begin(), best_cycle.end());
      if (best_cycle.empty() || std::lexicographical_compare(full.begin(), full.end(),
                                                             best_full.begin(), best_full.end())) {
        best_stem = std::move(stem);
        best_stem_ids = witness_ids(states, c.members.front());
        best_cycle = std::move(cycle);
        best_hungry = c.hungry_core;
      }
    }
  }

  // ---- verdict: safety first (a broken invariant trumps starvation),
  // else the lex-least fair lasso. Safety paths already are event-id
  // paths; for a lasso the stem ids are recorded and the cycle labels are
  // converted to ids by one short replay.
  if (result.config_error.empty() && (safety.found || !best_cycle.empty())) {
    result.violation_found = true;
    if (safety.found) {
      result.violation = safety.message;
      result.counterexample = std::move(safety.path);
    } else {
      ProcessId starving = 0;
      while ((best_hungry & (1ULL << starving)) == 0) ++starving;
      result.violation = std::string(kLivenessViolationPrefix) + " process " +
                         std::to_string(starving) + " stays hungry forever (fair cycle, " +
                         fairness_name(options.fairness) + ")";
      result.stem_length = best_stem_ids.size();
      result.cycle_length = best_cycle.size();
      auto world = factory();
      world->simulator().start();
      for (std::uint64_t id : best_stem_ids) {
        const bool fired = world->simulator().execute_event(id);
        assert(fired && "winning stem must replay");
        (void)fired;
      }
      result.counterexample = std::move(best_stem_ids);
      for (std::uint64_t lbl : best_cycle) {
        bool fired = false;
        for (const PendingEvent& ev : choices(*world, options)) {
          if (label_of(*world, ev) == lbl) {
            result.counterexample.push_back(ev.id);
            fired = world->simulator().execute_event(ev.id);
            break;
          }
        }
        assert(fired && "winning cycle must replay");
        (void)fired;
      }
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

LassoReplay unroll_lasso(const LivenessWorldFactory& factory, const Result& result,
                         std::size_t laps, const Options& options) {
  LassoReplay out;
  const std::size_t total = result.counterexample.size();
  if (result.cycle_length == 0 || result.stem_length + result.cycle_length != total) return out;

  auto world = factory();
  world->simulator().start();
  auto note_check = [&] {
    std::string err = world->check();
    if (!err.empty() && out.violation.empty()) out.violation = std::move(err);
  };
  for (std::size_t i = 0; i < result.stem_length; ++i) {
    if (!world->simulator().execute_event(result.counterexample[i])) return out;
    out.fired.push_back(result.counterexample[i]);
    note_check();
  }

  std::vector<std::uint64_t> entry_key;
  build_key(*world, entry_key);
  Labels cycle_labels;

  std::vector<std::uint64_t> key;
  for (std::size_t lap = 0; lap < laps; ++lap) {
    for (std::size_t i = 0; i < result.cycle_length; ++i) {
      std::uint64_t id = 0;
      bool resolved = false;
      if (lap == 0) {
        // First lap by recorded id; learn the semantic labels as we go.
        id = result.counterexample[result.stem_length + i];
        for (const PendingEvent& ev : choices(*world, options)) {
          if (ev.id == id) {
            cycle_labels.push_back(label_of(*world, ev));
            resolved = true;
            break;
          }
        }
      } else {
        // Later laps by label: ids are fresh, semantics are not.
        for (const PendingEvent& ev : choices(*world, options)) {
          if (label_of(*world, ev) == cycle_labels[i]) {
            id = ev.id;
            resolved = true;
            break;
          }
        }
      }
      if (!resolved || !world->simulator().execute_event(id)) return out;
      out.fired.push_back(id);
      note_check();
    }
    build_key(*world, key);
    if (key == entry_key) {
      ++out.laps_closed;
    }
  }
  out.valid = true;
  out.world = std::move(world);
  return out;
}

}  // namespace ekbd::mc
