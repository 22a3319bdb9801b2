#include "scenario/liveness.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/coloring.hpp"
#include "graph/topology.hpp"
#include "sim/delay_model.hpp"
#include "sim/rng.hpp"

namespace ekbd::scenario {

using ekbd::core::WaitFreeDiner;
using ekbd::dining::TraceEventKind;
using ekbd::drinking::DrinkingDiner;
using ekbd::sim::ExecMode;
using ekbd::sim::PendingEvent;

namespace {

/// State-key packing limits (DinnerLivenessWorld::state_key): overtake
/// counters take 4 bits per (waiter, eater) pair in one word per waiter,
/// neighbor slots 8 bits each in one word per process.
constexpr std::size_t kMaxProcesses = 16;
constexpr std::size_t kMaxDegree = 8;

ekbd::graph::ConflictGraph build_graph(const LivenessConfig& cfg) {
  // Seeded but irrelevant for the certification set (clique/ring/grid are
  // deterministic); a fixed seed keeps factories replay-identical even
  // for the random family.
  ekbd::sim::Rng rng(1);
  ekbd::graph::ConflictGraph g = ekbd::graph::by_name(cfg.topology, cfg.n, rng);
  if (g.size() > kMaxProcesses) {
    throw std::invalid_argument("liveness world: " + std::to_string(g.size()) +
                                " processes, at most " + std::to_string(kMaxProcesses));
  }
  if (g.max_degree() > kMaxDegree) {
    throw std::invalid_argument("liveness world: degree " + std::to_string(g.max_degree()) +
                                ", at most " + std::to_string(kMaxDegree));
  }
  return g;
}

/// The pending choice with this event id; throws on an unknown id (fail
/// loud).
template <typename Choices>
auto find_choice(Choices& pending, std::uint64_t id) {
  const auto it = std::find_if(pending.begin(), pending.end(),
                               [id](const auto& c) { return c.id == id; });
  if (it == pending.end()) throw std::out_of_range("no pending scheduled choice with this id");
  return it;
}

/// Semantic fingerprint of a choice: (role, process).
template <typename Choice>
std::uint64_t choice_fingerprint(const Choice& c) {
  return (static_cast<std::uint64_t>(c.role) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.p));
}

}  // namespace

// ------------------------------------------------------- dinner world --

DinnerLivenessWorld::Universe::Universe(const LivenessConfig& config)
    : cfg(config), graph(build_graph(config)), colors(ekbd::graph::greedy_coloring(graph)) {}

DinnerLivenessWorld::DinnerLivenessWorld(const LivenessConfig& cfg)
    : DinnerLivenessWorld(std::make_shared<const Universe>(cfg)) {}

DinnerLivenessWorld::DinnerLivenessWorld(std::shared_ptr<const Universe> universe)
    : universe_(std::move(universe)),
      cfg_(universe_->cfg),
      graph_(universe_->graph),
      sim_(1, nullptr, ExecMode::kControlled),
      perfect_(sim_) {
  const std::size_t n = graph_.size();
  const std::vector<int>& colors = universe_->colors;
  const ekbd::fd::FailureDetector& det =
      cfg_.mutation == LivenessMutation::kStuckDetector
          ? static_cast<const ekbd::fd::FailureDetector&>(never_)
          : static_cast<const ekbd::fd::FailureDetector&>(perfect_);
  WaitFreeDiner::Options dopt;
  dopt.acks_per_session = cfg_.acks_per_session;
  dopt.mutate_drop_fork_handover = cfg_.mutation == LivenessMutation::kDropForkHandover;
  dopt.mutate_grant_beyond_budget = cfg_.mutation == LivenessMutation::kGrantBeyondBudget;

  meals_done_.assign(n, 0);
  overtakes_.assign(n * n, 0);
  choices_.reserve(n + 1);  // at most one per process, plus the crash
  trace_.reserve(32);
  diners_.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    const auto pid = static_cast<ProcessId>(p);
    std::vector<int> ncolors;
    ncolors.reserve(graph_.degree(pid));
    for (ProcessId q : graph_.neighbors(pid)) {
      ncolors.push_back(colors[static_cast<std::size_t>(q)]);
    }
    auto* d = sim_.make_actor<WaitFreeDiner>(graph_.neighbors(pid), colors[p],
                                             std::move(ncolors), det, dopt);
    d->set_event_callback(
        [this](ekbd::dining::Diner& dd, TraceEventKind kind) { on_trace(dd, kind); });
    diners_.push_back(d);
  }
  sim_.start();
  if (cfg_.crash_victim >= 0) schedule_choice(Role::kCrash, cfg_.crash_victim);
  for (std::size_t p = 0; p < n; ++p) {
    if ((cfg_.initial_hungry >> p) & 1ULL) diners_[p]->become_hungry();
  }
}

void DinnerLivenessWorld::schedule_choice(Role role, ProcessId p) {
  const std::uint64_t id = sim_.next_event_id();
  choices_.push_back(Choice{id, role, p});
  // Two words of capture: small enough for std::function's inline buffer.
  sim_.schedule(sim_.now(), [this, id] { run_choice(id); });
}

void DinnerLivenessWorld::run_choice(std::uint64_t id) {
  const auto it = find_choice(choices_, id);
  const Choice c = *it;
  choices_.erase(it);
  auto* d = diners_[static_cast<std::size_t>(c.p)];
  switch (c.role) {
    case Role::kFinish:
      if (!sim_.crashed(c.p) && d->eating()) d->finish_eating();
      break;
    case Role::kRehungry:
      if (!sim_.crashed(c.p) && d->thinking()) d->become_hungry();
      break;
    case Role::kCrash:
      sim_.crash(c.p);
      break;
  }
}

void DinnerLivenessWorld::on_trace(ekbd::dining::Diner& d, TraceEventKind kind) {
  const ProcessId p = d.id();
  const std::size_t n = graph_.size();
  const auto pi = static_cast<std::size_t>(p);
  trace_.record(sim_.now(), p, kind);
  switch (kind) {
    case TraceEventKind::kBecameHungry:
      // New hungry session: the P4 overtake counters restart.
      std::fill_n(overtakes_.begin() + static_cast<std::ptrdiff_t>(pi * n),
                  static_cast<std::ptrdiff_t>(n), 0);
      break;
    case TraceEventKind::kStartEating:
      for (ProcessId q : graph_.neighbors(p)) {
        if (!sim_.crashed(q) && diners_[static_cast<std::size_t>(q)]->hungry()) {
          int& c = overtakes_[static_cast<std::size_t>(q) * n + pi];
          c = std::min(c + 1, cfg_.overtake_bound + 1);
        }
      }
      schedule_choice(Role::kFinish, p);
      break;
    case TraceEventKind::kStopEating:
      ++meals_done_[pi];
      if (cfg_.meals < 0 || meals_done_[pi] < cfg_.meals) {
        schedule_choice(Role::kRehungry, p);
      }
      break;
    default:
      break;
  }
}

std::string DinnerLivenessWorld::check() {
  std::uint64_t lemma11 = 0;
  for (auto* d : diners_) lemma11 += d->lemma11_violations();
  if (lemma11 > 0) return "Lemma 1.1 violated (request reached a non-holder)";
  const std::size_t n = graph_.size();
  for (std::size_t a = 0; a < n; ++a) {
    const auto pa = static_cast<ProcessId>(a);
    for (ProcessId b : graph_.neighbors(pa)) {
      if (b < pa) continue;  // each edge once
      auto* da = diners_[a];
      auto* db = diners_[static_cast<std::size_t>(b)];
      if (da->holds_fork(b) && db->holds_fork(pa)) return "fork duplicated";
      if (da->holds_token(b) && db->holds_token(pa)) return "token duplicated";
      if (da->eating() && db->eating() && !sim_.crashed(pa) && !sim_.crashed(b)) {
        return "live neighbors eating simultaneously with a truthful oracle";
      }
    }
  }
  if (cfg_.check_overtakes) {
    for (std::size_t w = 0; w < n; ++w) {
      for (std::size_t e = 0; e < n; ++e) {
        if (overtakes_[w * n + e] > cfg_.overtake_bound) {
          return "bounded waiting violated: process " + std::to_string(e) + " overtook hungry " +
                 std::to_string(w) + " " + std::to_string(overtakes_[w * n + e]) +
                 " times (bound " + std::to_string(cfg_.overtake_bound) + ")";
        }
      }
    }
  }
  return "";
}

bool DinnerLivenessWorld::done() {
  if (cfg_.meals < 0) return false;
  for (std::size_t p = 0; p < graph_.size(); ++p) {
    if (sim_.crashed(static_cast<ProcessId>(p))) continue;
    if (meals_done_[p] < cfg_.meals || !diners_[p]->thinking()) return false;
  }
  return true;
}

void DinnerLivenessWorld::state_key(std::vector<std::uint64_t>& out) const {
  const std::size_t n = graph_.size();
  for (std::size_t p = 0; p < n; ++p) {
    const auto* d = diners_[p];
    std::uint64_t word = static_cast<std::uint64_t>(d->state());
    word |= static_cast<std::uint64_t>(d->inside_doorway()) << 2;
    if (cfg_.meals >= 0) {
      // Finite-meal worlds put the (capped) meal counter in the key;
      // infinite-meal worlds leave it out so the graph closes into cycles.
      word |= static_cast<std::uint64_t>(std::min(meals_done_[p], cfg_.meals)) << 3;
    }
    out.push_back(word);
    std::uint64_t slots = 0;
    int shift = 0;
    for (ProcessId q : graph_.neighbors(static_cast<ProcessId>(p))) {
      std::uint64_t s = static_cast<std::uint64_t>(d->holds_fork(q));
      s |= static_cast<std::uint64_t>(d->holds_token(q)) << 1;
      s |= static_cast<std::uint64_t>(d->has_pending_ping(q)) << 2;
      s |= static_cast<std::uint64_t>(d->has_ack_from(q)) << 3;
      s |= static_cast<std::uint64_t>(d->has_deferred_ping_from(q)) << 4;
      s |= static_cast<std::uint64_t>(std::min(d->acks_granted_to(q), 7)) << 5;
      slots |= s << shift;  // degree <= kMaxDegree: fits one word
      shift += 8;
    }
    out.push_back(slots);
  }
  if (cfg_.check_overtakes) {
    for (std::size_t w = 0; w < n; ++w) {
      std::uint64_t word = 0;
      for (std::size_t e = 0; e < n; ++e) {
        word |= static_cast<std::uint64_t>(overtakes_[w * n + e] & 0xF) << (4 * e);
      }
      out.push_back(word);
    }
  }
}

std::uint64_t DinnerLivenessWorld::hungry_mask() const {
  std::uint64_t mask = 0;
  for (std::size_t p = 0; p < graph_.size(); ++p) {
    if (!sim_.crashed(static_cast<ProcessId>(p)) && diners_[p]->hungry()) {
      mask |= 1ULL << p;
    }
  }
  return mask;
}

std::uint64_t DinnerLivenessWorld::event_fingerprint(const PendingEvent& ev) const {
  if (ev.kind == PendingEvent::Kind::kTimer) {
    // The only timers in this world are the per-diner pump timers (no fd
    // module is hosted), so the owner identifies the timer.
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(ev.owner));
  }
  return choice_fingerprint(*find_choice(choices_, ev.id));
}

std::vector<Time> DinnerLivenessWorld::crash_times() const {
  std::vector<Time> ct(graph_.size(), -1);
  for (const auto& ev : trace_.events()) {
    if (ev.kind == TraceEventKind::kCrashed) ct[static_cast<std::size_t>(ev.process)] = ev.at;
  }
  return ct;
}

ekbd::mc::LivenessWorldFactory make_dinner_liveness_factory(LivenessConfig cfg) {
  auto universe = std::make_shared<const DinnerLivenessWorld::Universe>(cfg);
  return [universe] { return std::make_unique<DinnerLivenessWorld>(universe); };
}

// ----------------------------------------------------- drinking world --

DrinkingEdgeLivenessWorld::DrinkingEdgeLivenessWorld()
    : sim_(1, nullptr, ExecMode::kControlled) {
  hi_ = sim_.make_actor<DrinkingDiner>(std::vector<ProcessId>{1}, 1, std::vector<int>{0},
                                       never_);
  lo_ = sim_.make_actor<DrinkingDiner>(std::vector<ProcessId>{0}, 0, std::vector<int>{1},
                                       never_);
  choices_.reserve(2);
  wire(hi_, 1);
  wire(lo_, 0);
  sim_.start();
  hi_->become_thirsty({1});
  lo_->become_thirsty({0});
}

void DrinkingEdgeLivenessWorld::wire(DrinkingDiner* d, ProcessId peer) {
  (void)peer;
  d->set_drink_callback([this](DrinkingDiner& dd, DrinkingDiner::DrinkEvent ev) {
    if (ev == DrinkingDiner::DrinkEvent::kStartDrinking) {
      schedule_choice(Role::kFinishDrink, dd.id());
    } else if (ev == DrinkingDiner::DrinkEvent::kStopDrinking) {
      schedule_choice(Role::kRethirst, dd.id());
    }
  });
}

void DrinkingEdgeLivenessWorld::schedule_choice(Role role, ProcessId p) {
  const std::uint64_t id = sim_.next_event_id();
  choices_.push_back(Choice{id, role, p});
  sim_.schedule(sim_.now(), [this, id] { run_choice(id); });
}

void DrinkingEdgeLivenessWorld::run_choice(std::uint64_t id) {
  const auto it = find_choice(choices_, id);
  const Choice c = *it;
  choices_.erase(it);
  DrinkingDiner* d = c.p == 0 ? hi_ : lo_;
  const ProcessId peer = c.p == 0 ? 1 : 0;
  switch (c.role) {
    case Role::kFinishDrink:
      if (d->drinking()) d->finish_drinking();
      break;
    case Role::kRethirst:
      if (d->thirsty() || d->drinking()) break;
      if (!d->thinking()) {
        // The catalyst dining session is still draining; retry. The
        // retry is a fresh choice with the same role, so the state key
        // is unchanged and the retry loop dedups into a self-loop.
        schedule_choice(Role::kRethirst, c.p);
        break;
      }
      d->become_thirsty({peer});
      break;
  }
}

std::string DrinkingEdgeLivenessWorld::check() {
  if (hi_->holds_bottle(1) && lo_->holds_bottle(0)) return "bottle duplicated";
  if (hi_->bottle_conservation_violations() + lo_->bottle_conservation_violations() > 0) {
    return "bottle conservation violated";
  }
  if (hi_->drinking() && lo_->drinking()) {
    return "shared-bottle co-drinking with a truthful oracle";
  }
  if (hi_->holds_fork(1) && lo_->holds_fork(0)) return "fork duplicated";
  if (hi_->holds_token(1) && lo_->holds_token(0)) return "token duplicated";
  return "";
}

void DrinkingEdgeLivenessWorld::state_key(std::vector<std::uint64_t>& out) const {
  const DrinkingDiner* ds[2] = {hi_, lo_};
  const ProcessId peer[2] = {1, 0};
  for (int i = 0; i < 2; ++i) {
    const DrinkingDiner* d = ds[i];
    const ProcessId q = peer[i];
    std::uint64_t word = static_cast<std::uint64_t>(d->state());
    word |= static_cast<std::uint64_t>(d->inside_doorway()) << 2;
    word |= static_cast<std::uint64_t>(d->thirsty()) << 3;
    word |= static_cast<std::uint64_t>(d->drinking()) << 4;
    word |= static_cast<std::uint64_t>(!d->needed().empty()) << 5;
    word |= static_cast<std::uint64_t>(d->holds_bottle(q)) << 6;
    word |= static_cast<std::uint64_t>(d->holds_bottle_token(q)) << 7;
    word |= static_cast<std::uint64_t>(d->holds_fork(q)) << 8;
    word |= static_cast<std::uint64_t>(d->holds_token(q)) << 9;
    word |= static_cast<std::uint64_t>(d->has_pending_ping(q)) << 10;
    word |= static_cast<std::uint64_t>(d->has_ack_from(q)) << 11;
    word |= static_cast<std::uint64_t>(d->has_deferred_ping_from(q)) << 12;
    word |= static_cast<std::uint64_t>(std::min(d->acks_granted_to(q), 7)) << 13;
    out.push_back(word);
  }
}

std::uint64_t DrinkingEdgeLivenessWorld::hungry_mask() const {
  std::uint64_t mask = 0;
  if (hi_->thirsty() && !hi_->drinking()) mask |= 1ULL << 0;
  if (lo_->thirsty() && !lo_->drinking()) mask |= 1ULL << 1;
  return mask;
}

std::uint64_t DrinkingEdgeLivenessWorld::event_fingerprint(const PendingEvent& ev) const {
  if (ev.kind == PendingEvent::Kind::kTimer) {
    // Pump and thirst timers of the same owner collide here, which is
    // fine for this crash-free world: it is explored message-driven
    // (include_timers = false), so timers never become edge labels, and
    // in the state key the collision is disambiguated by the
    // thirsty/hungry bits that determine which timers are armed.
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(ev.owner));
  }
  return choice_fingerprint(*find_choice(choices_, ev.id));
}

ekbd::mc::LivenessWorldFactory make_drinking_edge_liveness_factory() {
  return [] { return std::make_unique<DrinkingEdgeLivenessWorld>(); };
}

}  // namespace ekbd::scenario
