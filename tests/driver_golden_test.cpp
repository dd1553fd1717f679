// Golden digests of whole searches: every strategy in every setup that
// orders cache, budget, fault or ladder effects across agents. Each case
// hashes (FNV-1a) the exact save_result text and the JSONL journal, so any
// change to the order in which the driver samples, looks up, evaluates,
// commits or journals a batch shows up as a changed digest.
//
// Two kinds of journal field are zeroed before hashing: `train_wall_ms`, a
// host wall-clock measurement, and the ppo_update loss diagnostics, whose
// last bits depend on how the compiler contracts the controller's loss
// sums (a sanitizer build prints different ones). The result digest covers
// the rollouts and rewards they are computed from; every other journal byte
// is virtual-clock data.
//
// Each case also runs once more with null telemetry, the schedule where
// trainings run ahead of the event loop and rewards are awaited only at the
// harvest; its save_result text must match the journal run's, telemetry
// flag aside.
//
// When an intended behaviour change moves a digest, the failure message
// prints the new value to paste into kGolden below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "ncnas/exec/fault.hpp"
#include "ncnas/exec/shared_cache.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace ncnas::nas {
namespace {

enum class Setup {
  kPlain,
  kShared,
  kSharedBounded,
  kSharedCollide,
  kSharedCollideBounded,
  kBudget,
  kChaos,
  kLadder,
};

const char* setup_name(Setup s) {
  switch (s) {
    case Setup::kPlain: return "plain";
    case Setup::kShared: return "shared";
    case Setup::kSharedBounded: return "shared_bounded";
    case Setup::kSharedCollide: return "shared_collide";
    case Setup::kSharedCollideBounded: return "shared_collide_bounded";
    case Setup::kBudget: return "budget";
    case Setup::kChaos: return "chaos";
    case Setup::kLadder: return "ladder";
  }
  return "?";
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

data::Dataset tiny_nt3() {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(5, dims);
}

// A four-architecture space: agents sampling it in the same round keep
// drawing each other's pending misses, and the cache fills within a cycle.
space::SearchSpace tiny_space() {
  using namespace space;
  Structure s;
  s.name = "nt3-tiny";
  s.input_names = {"rna-seq.expression"};
  Cell cell{"C0", {}};
  Block b{"b0", SkipRef::to_input(0), {}};
  b.nodes.emplace_back(VariableNode{"conv", {IdentityOp{}, Conv1DOp{4, 3}}});
  b.nodes.emplace_back(VariableNode{"act", {IdentityOp{}, ActivationOp{nn::Act::kRelu}}});
  cell.blocks.push_back(std::move(b));
  s.cells.push_back(std::move(cell));
  s.output_cells = {0};
  return SearchSpace(std::move(s));
}

SearchConfig base_config(SearchStrategy strategy) {
  SearchConfig cfg;
  cfg.strategy = strategy;
  cfg.cluster = {.num_agents = 3, .workers_per_agent = 3};
  cfg.wall_time_seconds = 900.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = 11;
  return cfg;
}

// Every fault shape: failures, slowdowns, lost results, PS drops and
// delays, one crashed worker, and an agent that loses all of its workers.
exec::FaultPlan chaos_plan() {
  exec::FaultPlan plan;
  plan.seed = 7;
  plan.eval_failure_prob = 0.25;
  plan.slowdown_prob = 0.15;
  plan.slowdown_multiple = 2.0;
  plan.lost_result_prob = 0.10;
  plan.ps_drop_prob = 0.15;
  plan.ps_delay_prob = 0.15;
  plan.ps_delay_seconds = 15.0;
  plan.max_retries = 2;
  plan.backoff_base_seconds = 5.0;
  plan.backoff_cap_seconds = 40.0;
  plan.barrier_timeout_seconds = 120.0;
  plan.worker_crashes.push_back({.agent = 1, .worker = 0, .time = 200.0});
  for (std::size_t w = 0; w < 3; ++w) {
    plan.worker_crashes.push_back({.agent = 2, .worker = w, .time = 400.0 + 50.0 * w});
  }
  return plan;
}

exec::LadderConfig two_rung_ladder() {
  exec::LadderConfig ladder;
  ladder.eta = 2;
  ladder.rungs = {{.epochs = 1, .subset_fraction = 1.0},
                  {.epochs = 2, .subset_fraction = 1.0}};
  return ladder;
}

struct Digests {
  std::uint64_t result = 0;
  std::uint64_t journal = 0;
  /// The result digest with SearchResult::telemetry_enabled cleared — what a
  /// run without telemetry must save.
  std::uint64_t untagged = 0;
};

std::string saved_text(const SearchResult& result, const std::string& fingerprint,
                       const std::string& log_path) {
  save_result(log_path, result, fingerprint);
  std::ifstream in(log_path, std::ios::binary);
  std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  in.close();
  std::filesystem::remove(log_path);
  return text;
}

// Runs one search and folds its save_result text into `d` — with a journal
// attached (the recorded schedule: rewards awaited at commit) and its
// canonical journal bytes too, or with null telemetry (rewards awaited at
// harvest, trainings running ahead of the event loop).
void run_and_digest(const SearchConfig& base, const space::SearchSpace& space,
                    const std::string& log_path, tensor::ThreadPool& pool, bool journal,
                    Digests& d) {
  const data::Dataset ds = tiny_nt3();
  obs::Telemetry telemetry;
  telemetry.enable_journal();
  SearchConfig cfg = base;
  cfg.telemetry = journal ? &telemetry : nullptr;
  SearchResult result = SearchDriver(space, ds, cfg, &pool).run();

  const std::string fingerprint = config_fingerprint(base, space.name());
  d.result = fnv1a(saved_text(result, fingerprint, log_path), d.result);
  result.telemetry_enabled = false;
  d.untagged = fnv1a(saved_text(result, fingerprint, log_path), d.untagged);
  if (!journal) return;

  std::vector<obs::JournalEvent> events = telemetry.journal()->snapshot();
  for (obs::JournalEvent& e : events) {
    const bool ppo = e.type == obs::JournalEventType::kPpoUpdate;
    for (obs::JournalField& f : e.payload) {
      if (f.key == "train_wall_ms" || (ppo && f.key != "batch")) f.value = 0.0;
    }
  }
  std::ostringstream jsonl;
  obs::Journal::export_jsonl(events, jsonl);
  d.journal = fnv1a(jsonl.str(), d.journal);
}

Digests run_case(SearchStrategy strategy, Setup setup, bool journal) {
  tensor::ThreadPool pool(2);
  const std::string log_path = ::testing::TempDir() + "ncnas_golden_" +
                               strategy_name(strategy) + "_" + setup_name(setup) + ".log";
  SearchConfig cfg = base_config(strategy);
  Digests d{1469598103934665603ull, 1469598103934665603ull, 1469598103934665603ull};
  const bool collide =
      setup == Setup::kSharedCollide || setup == Setup::kSharedCollideBounded;
  const space::SearchSpace space = collide ? tiny_space() : space::nt3_small_space();

  exec::FaultInjector chaos(chaos_plan());
  switch (setup) {
    case Setup::kPlain:
      break;
    case Setup::kShared:
    case Setup::kSharedBounded:
    case Setup::kSharedCollide:
    case Setup::kSharedCollideBounded: {
      // Two same-seed tenants, one after the other, on one store: the
      // second is served largely from the first's entries. The bounded
      // variants also evict while both run; the colliding ones search a
      // four-architecture space, so agents of one round hit each other's
      // fresh entries.
      const std::size_t bound = setup == Setup::kSharedBounded          ? 12
                                : setup == Setup::kSharedCollideBounded ? 2
                                                                        : 0;
      exec::SharedEvalCache shared(bound);
      cfg.shared_cache = &shared;
      for (std::uint32_t tenant = 0; tenant < 2; ++tenant) {
        cfg.tenant_id = tenant;
        run_and_digest(cfg, space, log_path, pool, journal, d);
      }
      const exec::SharedEvalCache::Stats totals = shared.totals();
      const std::string stats = std::to_string(totals.hits) + "/" +
                                std::to_string(totals.misses) + "/" +
                                std::to_string(totals.inserts) + "/" +
                                std::to_string(totals.cross_tenant_hits) + "/" +
                                std::to_string(totals.evictions);
      d.result = fnv1a(stats, d.result);
      d.untagged = fnv1a(stats, d.untagged);
      return d;
    }
    case Setup::kBudget:
      // 3 agents x 3 workers: one cap lands inside the bootstrap round,
      // the other inside the second A2C round.
      for (const std::size_t cap : {5u, 13u}) {
        cfg.max_evaluations = cap;
        run_and_digest(cfg, space, log_path, pool, journal, d);
      }
      return d;
    case Setup::kChaos:
      cfg.faults = &chaos;
      break;
    case Setup::kLadder:
      cfg.ladder = two_rung_ladder();
      break;
  }
  run_and_digest(cfg, space, log_path, pool, journal, d);
  return d;
}

struct Golden {
  SearchStrategy strategy;
  Setup setup;
  Digests expected;
};

// Recorded on the agent-by-agent driver (one agent's misses per pool batch)
// with the serial reference kernels installed by default.
const Golden kGolden[] = {
    {SearchStrategy::kA2C, Setup::kPlain, {0xc2fec5ec553a2b77ull, 0x7fa10be3b11e17caull}},
    {SearchStrategy::kA2C, Setup::kShared, {0x0dfc33f7cb67498cull, 0x5e915a748a76ca2bull}},
    {SearchStrategy::kA2C, Setup::kSharedBounded, {0x46e1ca569b8c4048ull, 0xba62d9d9ec917d09ull}},
    {SearchStrategy::kA2C, Setup::kSharedCollide,
     {0xbdbd97f3baaa1b1bull, 0x9970201443a76d58ull}},
    {SearchStrategy::kA2C, Setup::kSharedCollideBounded,
     {0x2bf4e7670a962cf1ull, 0xcaab24d2f4d00503ull}},
    {SearchStrategy::kA2C, Setup::kBudget, {0xe5705573c78bb5a4ull, 0x9230bfdd11f82a56ull}},
    {SearchStrategy::kA2C, Setup::kChaos, {0x646b5b092860f8bbull, 0x49da43d1ca7b340dull}},
    {SearchStrategy::kA2C, Setup::kLadder, {0x2117daa5a8b02bbcull, 0x401c4500221d6787ull}},
    {SearchStrategy::kA3C, Setup::kPlain, {0xe6681f4b2c2e6bf9ull, 0x0972299087bd435aull}},
    {SearchStrategy::kA3C, Setup::kShared, {0x462419773c225431ull, 0xa2770674a5db966bull}},
    {SearchStrategy::kA3C, Setup::kSharedBounded, {0xbfbcb87307cb55ccull, 0x888a0360e2ef179bull}},
    {SearchStrategy::kA3C, Setup::kSharedCollide,
     {0xc128d547139792afull, 0xbf7348ded473d76bull}},
    {SearchStrategy::kA3C, Setup::kSharedCollideBounded,
     {0x5ce44c05372cf22dull, 0x3e42484002c5d073ull}},
    {SearchStrategy::kA3C, Setup::kBudget, {0x0a9c86892149d593ull, 0xbc36d205d94ba5beull}},
    {SearchStrategy::kA3C, Setup::kChaos, {0xc20b5692e6970f14ull, 0xbf96b21fa8994971ull}},
    {SearchStrategy::kA3C, Setup::kLadder, {0x8ab9b58a8b3e8f80ull, 0x3d739f4e8d79be61ull}},
    {SearchStrategy::kRandom, Setup::kPlain, {0x7895dfc8c283b6bfull, 0x05a6ac53f16d04f4ull}},
    {SearchStrategy::kRandom, Setup::kShared, {0xbd9e44e840aac923ull, 0x9600de5808930e7cull}},
    {SearchStrategy::kRandom, Setup::kSharedBounded, {0x71fa62b4f6a65242ull, 0x1b2d08c473a96ff3ull}},
    {SearchStrategy::kRandom, Setup::kSharedCollide,
     {0x7a368d2222eb026eull, 0x1afc5def320a8589ull}},
    {SearchStrategy::kRandom, Setup::kSharedCollideBounded,
     {0xa0e7d3e00de0a9a6ull, 0x70cff55688880eedull}},
    {SearchStrategy::kRandom, Setup::kBudget, {0xb0fce3213cb4042full, 0x8b417d86ca2b7d44ull}},
    {SearchStrategy::kRandom, Setup::kChaos, {0xbc10368fc71222cdull, 0xf49bb2a06e371a40ull}},
    {SearchStrategy::kRandom, Setup::kLadder, {0x92f18e95e65cf678ull, 0x9fdfc13853e88997ull}},
    {SearchStrategy::kEvolution, Setup::kPlain, {0x18f27faedc55530dull, 0x86e54a8271da65d2ull}},
    {SearchStrategy::kEvolution, Setup::kShared, {0x62ddadbdb4a8740cull, 0xef6b6a3de8d2202bull}},
    {SearchStrategy::kEvolution, Setup::kSharedBounded, {0x780d55799ac34f8cull, 0x96f70efd1dd5577bull}},
    {SearchStrategy::kEvolution, Setup::kSharedCollide,
     {0xd9f08b00d2f82040ull, 0x6146992e28fcb84full}},
    {SearchStrategy::kEvolution, Setup::kSharedCollideBounded,
     {0x074b552f2077cd3cull, 0x1ae5322dab6e9827ull}},
    {SearchStrategy::kEvolution, Setup::kBudget, {0x66591ff175ce99a3ull, 0x1ba9ff31bfddf72aull}},
    {SearchStrategy::kEvolution, Setup::kChaos, {0x96931af8e3cfd410ull, 0x204e690a502652a1ull}},
    {SearchStrategy::kEvolution, Setup::kLadder, {0x3a16d02e2516cd5full, 0x1975bd890af3cb1aull}},
};

void PrintTo(const Golden& g, std::ostream* os) {
  *os << strategy_name(g.strategy) << '/' << setup_name(g.setup);
}

class DriverGolden : public ::testing::TestWithParam<Golden> {};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull", static_cast<unsigned long long>(v));
  return buf;
}

TEST_P(DriverGolden, ResultAndJournalDigestsMatchRecording) {
  const Golden& g = GetParam();
  const Digests got = run_case(g.strategy, g.setup, /*journal=*/true);
  EXPECT_EQ(hex(got.result), hex(g.expected.result)) << "save_result digest";
  EXPECT_EQ(hex(got.journal), hex(g.expected.journal)) << "journal digest";
  // The null-telemetry schedule defers every reward to the harvest; it must
  // save the same search.
  const Digests unobserved = run_case(g.strategy, g.setup, /*journal=*/false);
  EXPECT_EQ(hex(unobserved.result), hex(got.untagged)) << "null-telemetry save_result digest";
}

INSTANTIATE_TEST_SUITE_P(AllStrategiesAndSetups, DriverGolden, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(strategy_name(info.param.strategy)) + "_" +
                                  setup_name(info.param.setup);
                         });

}  // namespace
}  // namespace ncnas::nas
