#include "core/flow_ilp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/pareto.h"
#include "lp/model.h"

namespace powerlim::core {

namespace {

using lp::Model;
using lp::Term;
using lp::Variable;

/// Sequencing status of an ordered pair (a, b): does a finish before b
/// starts?
enum class Seq : char { kFree, kZero, kOne };

/// Vertex-to-vertex reachability (TE' in the paper): reach[u][v] is true
/// when there is a directed path u ->* v (u == v included).
std::vector<std::vector<char>> vertex_reachability(
    const dag::TaskGraph& graph) {
  const std::size_t n = graph.num_vertices();
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (std::size_t v = 0; v < n; ++v) reach[v][v] = 1;
  const std::vector<int> order = graph.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int u = *it;
    for (int eid : graph.vertex(u).out_edges) {
      const int w = graph.edge(eid).dst;
      for (std::size_t v = 0; v < n; ++v) {
        reach[u][v] = static_cast<char>(reach[u][v] | reach[w][v]);
      }
    }
  }
  return reach;
}

/// The flow formulation's "things that hold power over a time interval":
/// application edges (tasks and messages), optional per-task slack, and
/// the artificial source/sink.
struct Entity {
  enum class Kind : char { kEdge, kSlack, kSource, kSink };
  Kind kind;
  int edge_id = -1;  // underlying edge for kEdge / kSlack
};

/// Builds and solves the flow ILP over the entity space.
class FlowBuilder {
 public:
  FlowBuilder(const dag::TaskGraph& graph, const machine::PowerModel& model,
              const machine::ClusterSpec& cluster,
              const FlowIlpOptions& options)
      : graph_(graph), options_(options), reach_(vertex_reachability(graph)) {
    frontiers_.resize(graph.num_edges());
    msg_duration_.assign(graph.num_edges(), 0.0);
    horizon_ = 0.0;
    for (const dag::Edge& e : graph.edges()) {
      if (e.is_task()) {
        frontiers_[e.id] = convex_frontier(model.enumerate(e.work, e.rank));
        horizon_ += frontiers_[e.id].front().duration;  // slowest point
      } else {
        msg_duration_[e.id] = cluster.message_seconds(e.bytes);
        horizon_ += msg_duration_[e.id];
      }
    }
    big_m_ = horizon_ * 1.05 + 1.0;
    build_entities();
    classify_pairs();
  }

  FlowIlpResult solve();

 private:
  void build_entities() {
    for (const dag::Edge& e : graph_.edges()) {
      entities_.push_back({Entity::Kind::kEdge, e.id});
    }
    if (options_.separate_slack) {
      slack_entity_of_edge_.assign(graph_.num_edges(), -1);
      for (const dag::Edge& e : graph_.edges()) {
        if (e.is_task()) {
          slack_entity_of_edge_[e.id] = static_cast<int>(entities_.size());
          entities_.push_back({Entity::Kind::kSlack, e.id});
        }
      }
    }
    source_ = static_cast<int>(entities_.size());
    entities_.push_back({Entity::Kind::kSource});
    sink_ = static_cast<int>(entities_.size());
    entities_.push_back({Entity::Kind::kSink});
  }

  /// Vertex whose firing time is an *upper anchor* for the entity's end:
  /// the entity has certainly finished by the time this vertex fires.
  int end_anchor(int a) const {
    const Entity& e = entities_[a];
    switch (e.kind) {
      case Entity::Kind::kEdge:
      case Entity::Kind::kSlack:
        return graph_.edge(e.edge_id).dst;
      case Entity::Kind::kSource:
        return graph_.init_vertex();
      case Entity::Kind::kSink:
        return graph_.finalize_vertex();
    }
    return -1;
  }

  /// Vertex whose firing time is a *lower anchor* for the entity's start.
  int start_anchor(int a) const {
    const Entity& e = entities_[a];
    switch (e.kind) {
      case Entity::Kind::kEdge:
      case Entity::Kind::kSlack:
        return graph_.edge(e.edge_id).src;
      case Entity::Kind::kSource:
        return graph_.init_vertex();
      case Entity::Kind::kSink:
        return graph_.finalize_vertex();
    }
    return -1;
  }

  bool strictly_precedes(int u, int v) const {
    return u != v && reach_[u][v];
  }

  void classify_pairs() {
    const int n = static_cast<int>(entities_.size());
    seq_.assign(n, std::vector<Seq>(n, Seq::kFree));
    for (int a = 0; a < n; ++a) seq_[a][a] = Seq::kZero;  // eq. (18)
    for (int a = 0; a < n; ++a) {
      if (a == source_ || a == sink_) continue;
      seq_[source_][a] = Seq::kOne;
      seq_[a][source_] = Seq::kZero;
      seq_[a][sink_] = Seq::kOne;
      seq_[sink_][a] = Seq::kZero;
    }
    seq_[source_][sink_] = Seq::kOne;
    seq_[sink_][source_] = Seq::kZero;

    for (int a = 0; a < n; ++a) {
      if (a == source_ || a == sink_) continue;
      for (int b = 0; b < n; ++b) {
        if (a == b || b == source_ || b == sink_) continue;
        const Entity& ea = entities_[a];
        const Entity& eb = entities_[b];
        // A task precedes its own slack (slack follows the task by
        // construction).
        if (ea.kind == Entity::Kind::kEdge &&
            eb.kind == Entity::Kind::kSlack && ea.edge_id == eb.edge_id) {
          seq_[a][b] = Seq::kOne;
          continue;
        }
        if (ea.kind == Entity::Kind::kSlack &&
            eb.kind == Entity::Kind::kEdge && ea.edge_id == eb.edge_id) {
          seq_[a][b] = Seq::kZero;
          continue;
        }
        // eq. (15): structural precedence via anchors.
        if (reach_[end_anchor(a)][start_anchor(b)]) {
          seq_[a][b] = Seq::kOne;
          continue;
        }
        // eq. (16) with the reverse fixed.
        if (reach_[end_anchor(b)][start_anchor(a)]) {
          seq_[a][b] = Seq::kZero;
          continue;
        }
        // eqs. (21), (22): entities sharing a start or end anchor.
        // For vertex-pinned entities (edges) also eqs. (19), (20):
        // upstream-start / upstream-end forbids sequencing.
        const bool both_edges = ea.kind == Entity::Kind::kEdge &&
                                eb.kind == Entity::Kind::kEdge;
        if (both_edges && (start_anchor(a) == start_anchor(b) ||
                           end_anchor(a) == end_anchor(b))) {
          seq_[a][b] = Seq::kZero;
          continue;
        }
        if (ea.kind == Entity::Kind::kSlack &&
            eb.kind == Entity::Kind::kSlack &&
            end_anchor(a) == end_anchor(b)) {
          seq_[a][b] = Seq::kZero;  // both end at the same vertex
          continue;
        }
        if (both_edges &&
            (strictly_precedes(start_anchor(b), start_anchor(a)) ||
             strictly_precedes(end_anchor(b), end_anchor(a)))) {
          seq_[a][b] = Seq::kZero;  // eqs. (19), (20)
          continue;
        }
      }
    }
  }

  // ---- model-building helpers ----------------------------------------------

  /// Appends coeff * duration(edge) to `terms`; returns the constant part.
  double duration_expr(int edge_id, double coeff, std::vector<Term>& terms) {
    const dag::Edge& e = graph_.edge(edge_id);
    if (!e.is_task()) return coeff * msg_duration_[edge_id];
    for (std::size_t k = 0; k < c_[edge_id].size(); ++k) {
      terms.push_back({c_[edge_id][k],
                       coeff * frontiers_[edge_id][k].duration});
    }
    return 0.0;
  }

  /// Appends coeff * start(entity); returns the constant part.
  double start_expr(int a, double coeff, std::vector<Term>& terms) {
    const Entity& e = entities_[a];
    switch (e.kind) {
      case Entity::Kind::kEdge:
        terms.push_back({v_[graph_.edge(e.edge_id).src], coeff});
        return 0.0;
      case Entity::Kind::kSlack: {
        // Slack starts when its task completes: v_src + d.
        terms.push_back({v_[graph_.edge(e.edge_id).src], coeff});
        return duration_expr(e.edge_id, coeff, terms);
      }
      case Entity::Kind::kSource:
        terms.push_back({v_[graph_.init_vertex()], coeff});
        return 0.0;
      case Entity::Kind::kSink:
        terms.push_back({v_[graph_.finalize_vertex()], coeff});
        return 0.0;
    }
    return 0.0;
  }

  /// Appends coeff * end(entity); returns the constant part.
  double end_expr(int a, double coeff, std::vector<Term>& terms) {
    const Entity& e = entities_[a];
    switch (e.kind) {
      case Entity::Kind::kEdge: {
        terms.push_back({v_[graph_.edge(e.edge_id).src], coeff});
        return duration_expr(e.edge_id, coeff, terms);
      }
      case Entity::Kind::kSlack:
        // Slack ends exactly when the destination vertex fires.
        terms.push_back({v_[graph_.edge(e.edge_id).dst], coeff});
        return 0.0;
      case Entity::Kind::kSource:
        terms.push_back({v_[graph_.init_vertex()], coeff});
        return 0.0;
      case Entity::Kind::kSink:
        terms.push_back({v_[graph_.finalize_vertex()], coeff});
        return 0.0;
    }
    return 0.0;
  }

  /// Appends coeff * power(entity); returns the constant part.
  double power_expr(int a, double coeff, std::vector<Term>& terms) {
    const Entity& e = entities_[a];
    switch (e.kind) {
      case Entity::Kind::kEdge: {
        const dag::Edge& edge = graph_.edge(e.edge_id);
        if (!edge.is_task()) return 0.0;  // messages carry no socket power
        for (std::size_t k = 0; k < c_[e.edge_id].size(); ++k) {
          terms.push_back({c_[e.edge_id][k],
                           coeff * frontiers_[e.edge_id][k].power});
        }
        return 0.0;
      }
      case Entity::Kind::kSlack:
        return coeff * options_.slack_power_watts;  // eq. (25) analog
      case Entity::Kind::kSource:
      case Entity::Kind::kSink:
        return coeff * options_.power_cap;  // eq. (25)
    }
    return 0.0;
  }

  const dag::TaskGraph& graph_;
  FlowIlpOptions options_;
  std::vector<std::vector<char>> reach_;
  std::vector<std::vector<machine::Config>> frontiers_;
  std::vector<double> msg_duration_;
  double horizon_ = 0.0;
  double big_m_ = 0.0;

  std::vector<Entity> entities_;
  std::vector<int> slack_entity_of_edge_;
  int source_ = -1;
  int sink_ = -1;
  std::vector<std::vector<Seq>> seq_;

  // Model variables (populated in solve()).
  std::vector<Variable> v_;                  // per graph vertex
  std::vector<std::vector<Variable>> c_;     // per edge: config shares
};

FlowIlpResult FlowBuilder::solve() {
  const int n = static_cast<int>(entities_.size());
  const double pc = options_.power_cap;
  Model m(lp::Sense::kMinimize);

  // Vertex times.
  v_.resize(graph_.num_vertices());
  for (std::size_t u = 0; u < graph_.num_vertices(); ++u) {
    const bool is_init = static_cast<int>(u) == graph_.init_vertex();
    const bool is_fin = static_cast<int>(u) == graph_.finalize_vertex();
    v_[u] = m.add_variable(0.0, is_init ? 0.0 : big_m_, is_fin ? 1.0 : 0.0,
                           "v" + std::to_string(u));
  }

  // Configuration shares and the one-configuration rows (eqs. 5/6, 9).
  c_.resize(graph_.num_edges());
  for (const dag::Edge& e : graph_.edges()) {
    if (!e.is_task()) continue;
    for (std::size_t k = 0; k < frontiers_[e.id].size(); ++k) {
      const std::string name =
          "c" + std::to_string(e.id) + "_" + std::to_string(k);
      c_[e.id].push_back(options_.discrete_configs
                             ? m.add_integer_variable(0, 1, 0, name)
                             : m.add_variable(0, 1, 0, name));
    }
    std::vector<Term> one;
    for (const Variable& var : c_[e.id]) one.push_back({var, 1.0});
    m.add_eq(one, 1.0);
  }

  // Vertex firing after edge completion (also makes slack durations >= 0).
  for (const dag::Edge& e : graph_.edges()) {
    std::vector<Term> terms{{v_[e.dst], 1.0}, {v_[e.src], -1.0}};
    const double constant = duration_expr(e.id, -1.0, terms);
    m.add_ge(terms, -constant);
  }

  // Sequencing binaries for free pairs (eq. 14).
  std::vector<std::vector<Variable>> x(n, std::vector<Variable>(n));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (seq_[a][b] == Seq::kFree) {
        x[a][b] = m.add_binary(0.0, "x" + std::to_string(a) + "_" +
                                        std::to_string(b));
      }
    }
  }
  auto x_term = [&](int a, int b, double coeff,
                    std::vector<Term>& terms) -> double {
    switch (seq_[a][b]) {
      case Seq::kFree:
        terms.push_back({x[a][b], coeff});
        return 0.0;
      case Seq::kOne:
        return coeff;
      case Seq::kZero:
        return 0.0;
    }
    return 0.0;
  };

  // eq. (16): x_ab + x_ba <= 1 where both free.
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (seq_[a][b] == Seq::kFree && seq_[b][a] == Seq::kFree) {
        m.add_le({{x[a][b], 1.0}, {x[b][a], 1.0}}, 1.0);
      }
    }
  }

  // eq. (17): transitivity x_ac >= x_ab + x_bc - 1, non-trivial rows only.
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b || seq_[a][b] == Seq::kZero) continue;
      for (int ccc = 0; ccc < n; ++ccc) {
        if (ccc == a || ccc == b) continue;
        if (seq_[b][ccc] == Seq::kZero || seq_[a][ccc] == Seq::kOne) continue;
        if (seq_[a][b] == Seq::kOne && seq_[b][ccc] == Seq::kOne) {
          if (seq_[a][ccc] != Seq::kOne) {
            throw std::logic_error("flow ILP: inconsistent fixed sequencing");
          }
          continue;
        }
        std::vector<Term> terms;
        double constant = 0.0;
        constant += x_term(a, ccc, 1.0, terms);
        constant += x_term(a, b, -1.0, terms);
        constant += x_term(b, ccc, -1.0, terms);
        m.add_ge(terms, -1.0 - constant);
      }
    }
  }

  // eq. (23): start(b) - end(a) >= -M (1 - x_ab).
  for (int a = 0; a < n; ++a) {
    if (a == sink_) continue;
    for (int b = 0; b < n; ++b) {
      if (a == b || b == source_ || seq_[a][b] == Seq::kZero) continue;
      std::vector<Term> terms;
      double constant = 0.0;
      constant += start_expr(b, 1.0, terms);
      constant += end_expr(a, -1.0, terms);
      double rhs = -constant;
      if (seq_[a][b] == Seq::kFree) {
        terms.push_back({x[a][b], -big_m_});
        rhs -= big_m_;
      }
      m.add_ge(terms, rhs);
    }
  }

  // ---- power flow (eqs. 26-29) ---------------------------------------------
  std::vector<std::vector<Variable>> f(n, std::vector<Variable>(n));
  for (int a = 0; a < n; ++a) {
    if (a == sink_) continue;
    for (int b = 0; b < n; ++b) {
      if (a == b || b == source_ || seq_[a][b] == Seq::kZero) continue;
      f[a][b] = m.add_variable(0.0, pc, 0.0,
                               "f" + std::to_string(a) + "_" +
                                   std::to_string(b));
      if (seq_[a][b] == Seq::kFree) {
        m.add_le({{f[a][b], 1.0}, {x[a][b], -pc}}, 0.0);  // eq. (27) pt 1
      }
      for (int side : {a, b}) {  // eq. (27) pts 2, 3: f <= p_a, f <= p_b
        std::vector<Term> terms{{f[a][b], 1.0}};
        const double constant = power_expr(side, -1.0, terms);
        m.add_le(terms, -constant);
      }
    }
  }
  // eq. (28): outflow equals the entity's power.
  for (int a = 0; a < n; ++a) {
    if (a == sink_) continue;
    std::vector<Term> terms;
    for (int b = 0; b < n; ++b) {
      if (f[a][b].valid()) terms.push_back({f[a][b], 1.0});
    }
    const double constant = power_expr(a, -1.0, terms);
    m.add_eq(terms, -constant);
  }
  // eq. (29): inflow equals the entity's power.
  for (int b = 0; b < n; ++b) {
    if (b == source_) continue;
    std::vector<Term> terms;
    for (int a = 0; a < n; ++a) {
      if (a != sink_ && f[a][b].valid()) terms.push_back({f[a][b], 1.0});
    }
    const double constant = power_expr(b, -1.0, terms);
    m.add_eq(terms, -constant);
  }

  // ---- solve ---------------------------------------------------------------
  FlowIlpResult out;
  const lp::MipSolution sol = lp::solve_mip(m, options_.branch_bound);
  out.status = sol.status;
  out.nodes = sol.nodes;
  if (!sol.optimal()) return out;
  out.makespan = sol.objective;

  out.start.assign(graph_.num_edges(), 0.0);
  out.schedule.shares.assign(graph_.num_edges(), {});
  out.schedule.duration.assign(graph_.num_edges(), 0.0);
  out.schedule.power.assign(graph_.num_edges(), 0.0);
  for (const dag::Edge& e : graph_.edges()) {
    out.start[e.id] = sol.values[v_[e.src].index];
    if (!e.is_task()) {
      out.schedule.duration[e.id] = msg_duration_[e.id];
      continue;
    }
    auto& shares = out.schedule.shares[e.id];
    double tot = 0.0;
    for (std::size_t k = 0; k < c_[e.id].size(); ++k) {
      const double frac = sol.values[c_[e.id][k].index];
      if (frac > 1e-9) {
        shares.push_back({static_cast<int>(k), frac});
        tot += frac;
      }
    }
    if (shares.empty()) {
      throw std::runtime_error("flow ILP: task has no configuration");
    }
    for (ConfigShare& s : shares) s.fraction /= tot;
  }
  blend(out.schedule, frontiers_);
  return out;
}

}  // namespace

FlowIlpResult solve_flow_ilp(const dag::TaskGraph& graph,
                             const machine::PowerModel& model,
                             const machine::ClusterSpec& cluster,
                             const FlowIlpOptions& options) {
  graph.validate();
  FlowBuilder builder(graph, model, cluster, options);
  return builder.solve();
}

}  // namespace powerlim::core
