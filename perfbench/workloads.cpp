#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <utility>

#include "baselines/mst_baseline.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/feasibility.hpp"
#include "core/ira.hpp"
#include "distributed/dataplane.hpp"
#include "scenario/random_net.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "wsn/io.hpp"
#include "wsn/metrics.hpp"

namespace perfbench {

using namespace mrlc;
using Clock = std::chrono::steady_clock;

namespace {

/// ira_binding_n128 asks for LC = L(MST) + point * (L_AAML - L(MST)).
constexpr double kDirectPoint = 0.5;
constexpr double kStrictPoint = 0.1;
/// The data-plane grid (PRRs, energies) and each op's channel and churn
/// seed derive from this fixed seed.
constexpr std::uint64_t kGridSeed = 11000;
constexpr double kMeanBadBurstSlots = 8.0;
/// The data-plane warm-up runs the first op's seed for this many rounds:
/// the ops' code path at a small, fixed cost.
constexpr int kWarmUpRounds = 5;
/// Pool width of the data planes and the service.
constexpr unsigned kWideWidth = 4;
/// Service topology t is drawn from seed kFirstTopologySeed + t.
constexpr std::uint64_t kFirstTopologySeed = 8000;
/// Twice the batch size: a full batch always waits while one is solved,
/// so batch composition does not depend on thread timing.
constexpr int kOutstanding = 8;
constexpr int kBatchSize = 4;  // run.py's SERVICE_BATCH mirrors it

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool close_rel(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Share of non-sink readings that reach the sink in one round without
/// retransmissions: mean over nodes of the PRR product along the path.
double expected_delivery(const wsn::Network& net,
                         const wsn::AggregationTree& tree) {
  const int n = net.node_count();
  if (n < 2) return 1.0;
  const auto children = tree.children_lists();
  std::vector<double> reach(static_cast<std::size_t>(n), 0.0);
  std::vector<wsn::VertexId> stack{tree.root()};
  reach[static_cast<std::size_t>(tree.root())] = 1.0;
  double sum = 0.0;
  while (!stack.empty()) {
    const wsn::VertexId u = stack.back();
    stack.pop_back();
    for (wsn::VertexId c : children[static_cast<std::size_t>(u)]) {
      reach[static_cast<std::size_t>(c)] =
          reach[static_cast<std::size_t>(u)] *
          net.link_prr(tree.parent_edge(c));
      sum += reach[static_cast<std::size_t>(c)];
      stack.push_back(c);
    }
  }
  return sum / static_cast<double>(n - 1);
}

/// Fisher-Yates with the run seed's own stream: the run seed draws the
/// order of a fixed op list.
template <class T>
void shuffle(std::vector<T>& items, std::uint64_t seed, std::uint64_t stream) {
  Rng rng(stream_seed(seed, stream, 0));
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng() % i]);
  }
}

bool meets_lc(double lifetime, double lc) {
  return lifetime >= lc * (1.0 - 1e-12);
}

/// Fills the tree-derived quality fields of `out`.
void score_tree(const wsn::Network& net, const wsn::AggregationTree& tree,
                double lc, OpOutcome& out) {
  out.has_tree = true;
  out.reliability = wsn::tree_reliability(net, tree);
  out.lc_met = meets_lc(wsn::network_lifetime(net, tree), lc);
  out.delivery = expected_delivery(net, tree);
}

void fail(OpOutcome& out, std::string why, bool wrong) {
  out.ok = false;
  out.wrong = out.wrong || wrong;
  if (out.error.empty()) out.error = std::move(why);
}

struct LcPoints {
  double l_mst = 0.0;
  double l_aaml = 0.0;
  double at(double point) const { return l_mst + point * (l_aaml - l_mst); }
};

LcPoints lc_points(const wsn::Network& net, SpanLog* spans) {
  LcPoints out;
  {
    ScopedSpan span(spans, "baselines.mst_baseline");
    out.l_mst = baselines::mst_baseline(net).lifetime;
  }
  {
    ScopedSpan span(spans, "core.achievable_lifetime_lower_bound");
    out.l_aaml = core::achievable_lifetime_lower_bound(net);
  }
  return out;
}

wsn::Network random_network(int nodes, double p, std::uint64_t seed,
                            SpanLog* spans) {
  scenario::RandomNetworkConfig config;
  config.node_count = nodes;
  config.link_probability = p;
  Rng rng(seed);
  ScopedSpan span(spans, "scenario.make_random_network");
  return scenario::make_random_network(config, rng);
}

// ------------------------------------------------------------ IRA

class IraWorkload final : public Workload {
 public:
  explicit IraWorkload(IraConfig config) : config_(config) {}

  unsigned pool_width() const override { return 1; }

  void setup(std::uint64_t seed, SpanLog* spans) override {
    instances_.clear();
    ops_.clear();
    for (std::uint64_t instance_seed : config_.instance_seeds) {
      Instance inst;
      inst.net = random_network(config_.nodes, config_.link_probability,
                                instance_seed, spans);
      inst.lc = lc_points(inst.net, spans);
      instances_.push_back(std::move(inst));
    }
    for (int j = 0; j < static_cast<int>(instances_.size()); ++j) {
      const LcPoints& lc = instances_[static_cast<std::size_t>(j)].lc;
      ops_.push_back({j, core::BoundMode::kDirect, lc.at(kDirectPoint)});
      ops_.push_back({j, core::BoundMode::kPaperStrict, lc.at(kStrictPoint)});
    }
    shuffle(ops_, seed, 1);
  }

  /// Solves instance 0 at LC = L(MST), where no degree row binds: the same
  /// code path as the ops at a fixed, small cost, whatever the op order.
  void warm_up() override {
    set_default_thread_count(pool_width());
    run_op({0, core::BoundMode::kDirect, instances_.front().lc.l_mst}, nullptr, -1);
  }

  PassResult run_pass(const RunConfig& config) override {
    set_default_thread_count(config.width ? config.width : pool_width());
    PassResult pass;
    ScopedSpan span(config.spans, "pass");
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      pass.ops.push_back(run_op(ops_[i], config.spans, static_cast<int>(i)));
      pass.wall_ms += pass.ops.back().ms;
    }
    return pass;
  }

  std::string inputs_fingerprint() const override {
    std::ostringstream os;
    os.precision(17);
    for (const Instance& inst : instances_) os << wsn::network_to_string(inst.net);
    for (const Op& op : ops_) {
      os << op.instance << ' ' << static_cast<int>(op.mode) << ' ' << op.lc << '\n';
    }
    return os.str();
  }

 private:
  struct Instance {
    wsn::Network net{1};
    LcPoints lc;
  };
  struct Op {
    int instance = 0;
    core::BoundMode mode = core::BoundMode::kDirect;
    double lc = 0.0;
  };

  OpOutcome run_op(const Op& op, SpanLog* spans, int index) const {
    const Instance& inst = instances_[static_cast<std::size_t>(op.instance)];
    core::IraProgress progress;
    core::IraOptions options;
    options.bound_mode = op.mode;
    options.progress = &progress;
    OpOutcome out;
    core::IraResult result;
    bool solved = false;
    const auto t0 = Clock::now();
    try {
      ScopedSpan span(spans, "core.IterativeRelaxation::solve", index);
      result = core::IterativeRelaxation(options).solve(inst.net, op.lc);
      solved = true;
    } catch (const InfeasibleError& e) {
      // Every LC the workload asks for is at most L_AAML (or L(MST)), so
      // a tree exists: an infeasible verdict is a failed op.
      fail(out, std::string("no tree returned: ") + e.what(), false);
    } catch (const std::exception& e) {
      fail(out, std::string("solve threw: ") + e.what(), true);
    }
    out.ms = ms_between(t0, Clock::now());
    if (solved) check(inst.net, op, progress, result, out);
    return out;
  }

  static void check(const wsn::Network& net, const Op& op,
                    const core::IraProgress& progress,
                    const core::IraResult& result, OpOutcome& out) {
    out.ok = true;
    // Rebuilding from the parent array checks that the tree spans the
    // network over its links, has no cycle and is rooted at the sink.
    wsn::AggregationTree tree;
    try {
      tree = wsn::AggregationTree::from_parents(net, result.tree.parents());
    } catch (const std::exception& e) {
      fail(out, std::string("not a spanning tree of the network: ") + e.what(),
           true);
      return;
    }
    score_tree(net, tree, op.lc, out);
    const double cost = wsn::tree_cost(net, tree);
    const double lifetime = wsn::network_lifetime(net, tree);
    if (!close_rel(cost, result.cost)) fail(out, "reported cost differs", true);
    if (!close_rel(out.reliability, result.reliability)) {
      fail(out, "reported reliability differs", true);
    }
    if (!close_rel(lifetime, result.lifetime)) {
      fail(out, "reported lifetime differs", true);
    }
    if (op.mode == core::BoundMode::kDirect) {
      // docs/algorithms.md §5: cost <= first LP bound, ch(v) <= B(v, LC) + 2.
      if (!progress.first_lp_valid) {
        fail(out, "direct solve reported no LP bound", true);
      } else if (cost > progress.first_lp_objective +
                            1e-7 * std::max(1.0, progress.first_lp_objective)) {
        fail(out, "cost above the first LP bound", true);
      }
      for (wsn::VertexId v = 0; v < net.node_count(); ++v) {
        if (tree.children_count(v) - net.max_children_real(v, op.lc) >
            2.0 + 1e-9) {
          fail(out, "a node exceeds B(v, LC) + 2 children", true);
          break;
        }
      }
    } else if (!meets_lc(lifetime, op.lc)) {
      fail(out, "strict-mode tree misses LC", true);
    }
  }

  IraConfig config_;
  std::vector<Instance> instances_;
  std::vector<Op> ops_;
};

// ------------------------------------------------------------ data plane

class DataPlaneWorkload final : public Workload {
 public:
  explicit DataPlaneWorkload(DataPlaneConfig config) : config_(config) {}

  unsigned pool_width() const override { return kWideWidth; }

  void setup(std::uint64_t seed, SpanLog* spans) override {
    scenario::GridNetworkConfig grid;
    grid.rows = config_.rows;
    grid.cols = config_.cols;
    Rng rng(kGridSeed);
    {
      ScopedSpan span(spans, "scenario.make_grid_network");
      net_ = scenario::make_grid_network(grid, rng);
    }
    {
      ScopedSpan span(spans, "scenario.bfs_spanning_tree");
      tree_ = scenario::bfs_spanning_tree(net_);
    }
    lc_ = 0.5 * wsn::network_lifetime(net_, tree_);
    op_seeds_.clear();
    for (int j = 0; j < config_.ops; ++j) {
      op_seeds_.push_back(
          stream_seed(kGridSeed, 3, static_cast<std::uint64_t>(j)));
    }
    warm_up_seed_ = op_seeds_.front();
    shuffle(op_seeds_, seed, 2);
  }

  void warm_up() override {
    set_default_thread_count(pool_width());
    run_op(warm_up_seed_, kWarmUpRounds, RunConfig{}, -1);
  }

  PassResult run_pass(const RunConfig& config) override {
    set_default_thread_count(config.width ? config.width : pool_width());
    PassResult pass;
    ScopedSpan span(config.spans, "pass");
    for (int j = 0; j < config_.ops; ++j) {
      pass.ops.push_back(
          run_op(op_seeds_[static_cast<std::size_t>(j)], config_.rounds, config, j));
      pass.wall_ms += pass.ops.back().ms;
    }
    return pass;
  }

  std::string inputs_fingerprint() const override {
    std::ostringstream os;
    os.precision(17);
    os << wsn::network_to_string(net_) << wsn::tree_to_string(tree_) << lc_;
    for (std::uint64_t s : op_seeds_) os << ' ' << s;
    return os.str();
  }

 private:
  OpOutcome run_op(std::uint64_t op_seed, int rounds, const RunConfig& config,
                   int index) const {
    dist::DataPlaneOptions options;
    options.rounds = rounds;
    options.channel.model = config_.gilbert_elliott
                                ? radio::ChannelModel::kGilbertElliott
                                : radio::ChannelModel::kBernoulli;
    options.channel.mean_bad_burst = kMeanBadBurstSlots;
    options.repair = config.repair_off ? dist::RepairMode::kNone
                                       : dist::RepairMode::kEstimator;
    options.seed = op_seed;
    OpOutcome out;
    dist::DataPlaneResult result;
    bool ran = false;
    const auto t0 = Clock::now();
    try {
      ScopedSpan span(config.spans, "distributed.run_dataplane", index);
      result = dist::run_dataplane(net_, tree_, lc_, options);
      ran = true;
    } catch (const std::exception& e) {
      fail(out, std::string("run_dataplane threw: ") + e.what(), true);
    }
    out.ms = ms_between(t0, Clock::now());
    if (!ran) return out;
    out.ok = true;
    out.rounds = result.rounds;
    out.repairs = result.repairs_applied;
    if (result.rounds != rounds) {
      fail(out, "rounds completed differ from rounds requested", true);
    }
    if (!(result.delivery_ratio >= 0.0 && result.delivery_ratio <= 1.0)) {
      fail(out, "delivery ratio outside [0, 1]", true);
    }
    // One transaction per non-sink node per round; the delivered share is
    // the per-hop reliability the tree achieved under ARQ.
    const double transactions =
        static_cast<double>(net_.node_count() - 1) * result.rounds;
    out.has_tree = true;
    out.reliability =
        1.0 - static_cast<double>(result.packets_dropped) / transactions;
    out.lc_met = result.bound_met;
    out.delivery = result.delivery_ratio;
    return out;
  }

  DataPlaneConfig config_;
  wsn::Network net_{1};
  wsn::AggregationTree tree_;
  double lc_ = 0.0;
  std::vector<std::uint64_t> op_seeds_;  ///< channel/churn seed per op, run order
  std::uint64_t warm_up_seed_ = 0;
};

// ------------------------------------------------------------ service

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(ServiceConfig config) : config_(config) {
    MRLC_REQUIRE(config_.topologies > 0 && config_.topologies % 4 == 0,
                 "service topologies must be a positive multiple of 4");
  }

  unsigned pool_width() const override { return kWideWidth; }

  void setup(std::uint64_t seed, SpanLog* spans) override {
    static constexpr std::array<double, 3> kLevels = {0.25, 0.5, 0.75};
    nets_.clear();
    lcs_.clear();
    for (int t = 0; t < config_.topologies; ++t) {
      nets_.push_back(random_network(
          config_.nodes, config_.link_probability,
          kFirstTopologySeed + static_cast<std::uint64_t>(t), spans));
      const LcPoints lc = lc_points(nets_.back(), spans);
      lcs_.push_back({lc.at(kLevels[0]), lc.at(kLevels[1]), lc.at(kLevels[2])});
    }
    build_sequence(seed);
    payloads_.clear();
    std::vector<std::string> texts;
    for (const wsn::Network& net : nets_) texts.push_back(wsn::network_to_string(net));
    for (std::size_t i = 0; i < sequence_.size(); ++i) {
      service::WireRequest request;
      request.id = "r";
      request.id += std::to_string(i);
      request.lifetime = lc_of(sequence_[i]);
      request.network_text = texts[static_cast<std::size_t>(sequence_[i].topology)];
      ScopedSpan span(spans, "service.encode_request");
      payloads_.push_back(service::encode_request(request));
    }
  }

  void warm_up() override {
    set_default_thread_count(pool_width());
    service::WireRequest request;
    request.id = "warm-up";
    request.lifetime = lcs_.front()[0];
    request.network_text = wsn::network_to_string(nets_.front());
    service::SolverService svc(options(false));
    svc.submit_payload(service::encode_request(request),
                       [](const service::WireResponse&) {});
    svc.start();
    svc.drain();
  }

  PassResult run_pass(const RunConfig& config) override {
    set_default_thread_count(config.width ? config.width : pool_width());
    PassResult pass;
    const int pass_span = config.spans ? config.spans->open("pass") : -1;
    std::vector<service::WireResponse> replies(payloads_.size());
    std::vector<Clock::time_point> sent(payloads_.size());
    std::vector<Clock::time_point> answered(payloads_.size());
    {
      service::SolverService svc(options(config.spans != nullptr));
      closed_loop(svc, replies, sent, answered, pass);
      pass.cache_hits = svc.cache_stats().result_hits;
      pass.pool_leases = svc.cache_stats().pool_leases;
    }
    pass.wall_ms = ms_between(sent.front(),
                              *std::max_element(answered.begin(), answered.end()));
    for (std::size_t i = 0; i < replies.size(); ++i) {
      OpOutcome out;
      out.ms = ms_between(sent[i], answered[i]);
      if (config.spans) {
        config.spans->add("service.submit_payload->reply", static_cast<int>(i),
                          config.spans->to_ns(sent[i]),
                          config.spans->to_ns(answered[i]));
      }
      pass.ops.push_back(std::move(out));
    }
    if (config.spans) config.spans->close(pass_span);
    ScopedSpan check_span(config.spans, "check");
    std::map<std::pair<int, int>, std::size_t> first_reply;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      check(i, replies[i], first_reply, replies, config.spans, pass.ops[i]);
    }
    return pass;
  }

  std::string inputs_fingerprint() const override {
    std::string out;
    for (const std::string& p : payloads_) out += p;
    return out;
  }

 private:
  struct Request {
    int topology = 0;
    int level = 0;
    bool repeat = false;
  };

  service::ServiceOptions options(bool record_timings) const {
    service::ServiceOptions o;
    o.batch_size = kBatchSize;
    o.record_timings = record_timings;
    o.auto_start = false;  // the first batches fill before dispatch starts
    o.default_deadline_ms = -1;
    return o;
  }

  double lc_of(const Request& r) const {
    return lcs_[static_cast<std::size_t>(r.topology)][static_cast<std::size_t>(r.level)];
  }

  /// Chunks of four topologies t0..t3 fill four batches of four:
  ///   [t0l0 t0l1 t0l2 t1l0] [t1l1 t1l2 t2l0 R(t0)]
  ///   [t2l1 t2l2 t3l0 R(t1)] [t3l1 t3l2 R(t2) R(t3,l0)]
  /// Each repeat R names a request of an earlier batch, so with full
  /// batches every repeat is a result-cache hit (a quarter of all
  /// requests), and every batch still solves at least two misses.  The
  /// repeated levels are fixed per chunk and the seed draws only the chunk
  /// order, so every seed sends the same requests and gets the same trees.
  void build_sequence(std::uint64_t seed) {
    sequence_.clear();
    std::vector<int> chunks(static_cast<std::size_t>(config_.topologies / 4));
    std::iota(chunks.begin(), chunks.end(), 0);
    shuffle(chunks, seed, 3);
    for (int c : chunks) {
      const int t = 4 * c;
      auto o = [&](int dt, int l) { sequence_.push_back({t + dt, l, false}); };
      auto r = [&](int dt, int l) { sequence_.push_back({t + dt, l, true}); };
      o(0, 0); o(0, 1); o(0, 2); o(1, 0);
      o(1, 1); o(1, 2); o(2, 0); r(0, c % 3);
      o(2, 1); o(2, 2); o(3, 0); r(1, (c + 1) % 3);
      o(3, 1); o(3, 2); r(2, (c + 2) % 3); r(3, 0);
    }
  }

  /// Keeps kOutstanding requests in flight until the sequence is sent,
  /// then drains the service.  Replies arrive on the dispatcher thread;
  /// the client thread does all the submitting.  Each reply records how
  /// many requests were in flight when it arrived.
  void closed_loop(service::SolverService& svc,
                   std::vector<service::WireResponse>& replies,
                   std::vector<Clock::time_point>& sent,
                   std::vector<Clock::time_point>& answered,
                   PassResult& pass) const {
    std::mutex m;
    std::condition_variable cv;
    int outstanding = 0;
    const std::size_t total = payloads_.size();
    pass.in_flight_at_reply.assign(total, 0);
    auto submit = [&](std::size_t i) {
      {
        std::lock_guard<std::mutex> lock(m);
        ++outstanding;
      }
      sent[i] = Clock::now();
      svc.submit_payload(payloads_[i], [&, i](const service::WireResponse& reply) {
        const auto t = Clock::now();
        {
          std::lock_guard<std::mutex> lock(m);
          replies[i] = reply;
          answered[i] = t;
          pass.in_flight_at_reply[i] = outstanding--;
        }
        cv.notify_one();
      });
    };
    const std::size_t window = static_cast<std::size_t>(kOutstanding);
    std::size_t next = 0;
    while (next < std::min(window, total)) submit(next++);
    svc.start();
    while (next < total) {
      int free_slots = 0;
      {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return outstanding < kOutstanding; });
        free_slots = kOutstanding - outstanding;
      }
      for (int k = 0; k < free_slots && next < total; ++k) submit(next++);
    }
    // Delivers the remaining replies and joins the dispatcher, so no reply
    // callback outlives m and cv.
    svc.drain();
  }

  void check(std::size_t i, const service::WireResponse& reply,
             std::map<std::pair<int, int>, std::size_t>& first_reply,
             const std::vector<service::WireResponse>& replies, SpanLog* spans,
             OpOutcome& out) const {
    const Request& req = sequence_[i];
    out.queue_ms = reply.queue_ms;
    out.solve_ms = reply.solve_ms;
    out.cache_hit = reply.cache == "hit";
    if (reply.status != service::ResponseStatus::kOk || !reply.has_solution) {
      fail(out, std::string("reply status ") + service::to_string(reply.status) +
                    ": " + reply.detail, false);
      return;
    }
    try {
      service::WireRequest decoded;
      {
        ScopedSpan span(spans, "service.decode_request", static_cast<int>(i));
        decoded = service::decode_request(payloads_[i]);
      }
      wsn::Network net{1};
      {
        ScopedSpan span(spans, "wsn.network_from_string", static_cast<int>(i));
        net = wsn::network_from_string(decoded.network_text);
      }
      // Parsing validates the tree against the network: a spanning tree
      // over network links, rooted at the sink.
      const wsn::AggregationTree tree = wsn::tree_from_string(reply.tree_text, net);
      out.ok = true;
      score_tree(net, tree, lc_of(req), out);
      if (!close_rel(out.reliability, reply.reliability)) {
        fail(out, "reply reliability differs from its tree", true);
      }
    } catch (const std::exception& e) {
      fail(out, std::string("reply tree does not validate: ") + e.what(), true);
      return;
    }
    const auto key = std::make_pair(req.topology, req.level);
    const auto [it, inserted] = first_reply.emplace(key, i);
    if (!inserted && replies[it->second].tree_text != reply.tree_text) {
      fail(out, "exact repeat returned another tree", true);
    }
  }

  ServiceConfig config_;
  std::vector<wsn::Network> nets_;
  std::vector<std::array<double, 3>> lcs_;
  std::vector<Request> sequence_;
  std::vector<std::string> payloads_;
};

}  // namespace

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t state = seed;
  std::uint64_t h = splitmix64(state);
  state = h ^ (stream * 0x9E3779B97F4A7C15ULL);
  h = splitmix64(state);
  state = h ^ index;
  return splitmix64(state);
}

std::unique_ptr<Workload> make_ira_workload(const IraConfig& config) {
  return std::make_unique<IraWorkload>(config);
}

std::unique_ptr<Workload> make_dataplane_workload(const DataPlaneConfig& config) {
  return std::make_unique<DataPlaneWorkload>(config);
}

std::unique_ptr<Workload> make_service_workload(const ServiceConfig& config) {
  return std::make_unique<ServiceWorkload>(config);
}

std::vector<std::string> workload_names() {
  return {"ira_binding_n128", "dataplane_grid_40k", "dataplane_repair_10k",
          "service_closed_n48"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "ira_binding_n128") return make_ira_workload(IraConfig{});
  if (name == "dataplane_grid_40k") return make_dataplane_workload(DataPlaneConfig{});
  if (name == "dataplane_repair_10k") {
    DataPlaneConfig config;
    config.rows = 100;
    config.cols = 100;
    config.rounds = 30;
    config.gilbert_elliott = true;
    return make_dataplane_workload(config);
  }
  if (name == "service_closed_n48") return make_service_workload(ServiceConfig{});
  return nullptr;
}

}  // namespace perfbench
