// Extension bench: three-way validity cross-audit. Sweeps N randomly
// sampled configurations of each benchmark and cross-audits three
// independent validity signals:
//
//   static   — the clstat analyzer's verdict (clsim/analyze): proved valid,
//              proved invalid, or unknown, from the benchmark's declared
//              KernelConstraints alone, before any launch,
//   driver   — prepare() + validate_launch, the clsim driver's verdict
//              (what BenchmarkEvaluator turns into invalid measurements),
//   clcheck  — dynamic findings (bounds, races, barrier/allocation lints)
//              from an instrumented functional run of driver-accepted
//              configurations, plus the max-abs-error verdict.
//
// The interesting buckets:
//   driver_ok_clcheck_fault — the driver accepted it but the sanitizer saw
//     an out-of-bounds access, race, or divergence: a reproduction bug.
//     Expected 0; anything else is a regression signal for the kernels.
//   static unsoundness — the analyzer is only useful if its proofs hold:
//     * a kProvedInvalid configuration that the driver accepts AND clcheck
//       runs clean means the "proof" of invalidity was wrong, and
//     * a kProvedValid configuration that the driver rejects or clcheck
//       flags means the completeness promise of the constraint set was
//       wrong.
//     Both buckets are expected 0 and fail the audit (exit 3) otherwise.
//
// Each benchmark also gets a region-level analyzer sweep over the whole
// configuration space (StaticChecker::sweep), recording how much of the
// space the analyzer discharges without enumerating points.
//
// Flags:
//   --out=FILE     JSON report path (default ext_check.json)
//   --device=D     device name (default the Nvidia K40)
//   --configs=N    sampled configurations per benchmark (default 120)
//   --seed=S       RNG seed (default 1)
//   --smoke        fast mode for ctest: 40 configs, smaller sweep budget
//   --csv          additionally print the summary table as CSV

#include <array>
#include <cstddef>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "benchmarks/benchmark.hpp"
#include "report.hpp"
#include "tuner/sampler.hpp"

namespace {

using namespace pt;
using clsim::analyze::Verdict;

std::string describe(const tuner::ParamSpace& space,
                     const tuner::Configuration& config) {
  std::string out = "{";
  for (std::size_t i = 0; i < config.values.size(); ++i) {
    if (i != 0) out += ", ";
    out += space.parameter(i).name + "=" + std::to_string(config.values[i]);
  }
  return out + "}";
}

struct BenchmarkAudit {
  std::string name;
  std::size_t configs = 0;
  std::size_t driver_valid = 0;
  std::size_t driver_invalid = 0;
  std::size_t clcheck_clean = 0;
  std::size_t clcheck_fault = 0;  // driver-accepted but sanitizer-flagged
  std::size_t functional_mismatch = 0;  // max error above tolerance
  std::array<std::size_t, clsim::check::kFindingKindCount> finding_counts{};
  std::vector<std::string> fault_examples;  // first few finding strings

  // Static analyzer verdict mix over the sample.
  std::size_t static_proved_valid = 0;
  std::size_t static_proved_invalid = 0;
  std::size_t static_unknown = 0;
  // Unsoundness buckets (all expected 0 — see header comment).
  std::size_t static_invalid_but_accepted = 0;  // proved invalid, driver ok,
                                                // clcheck clean
  std::size_t static_valid_but_rejected = 0;    // proved valid, driver reject
  std::size_t static_valid_clcheck_fault = 0;   // proved valid, clcheck fault
  std::vector<std::string> unsound_examples;

  // Region-level sweep over the full space.
  clsim::analyze::SweepReport sweep;

  [[nodiscard]] std::size_t unsound() const {
    return static_invalid_but_accepted + static_valid_but_rejected +
           static_valid_clcheck_fault;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  const bool smoke = args.get("smoke", false);
  bench::print_banner(
      "Extension: three-way validity cross-audit (static vs driver vs "
      "clcheck)",
      !smoke);
  const auto out_path = args.get("out", "ext_check.json");
  const auto device_name =
      args.get("device", std::string(archsim::kNvidiaK40));
  const auto configs_per_benchmark = static_cast<std::size_t>(
      args.get("configs", smoke ? 40L : 120L));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 1L));
  const std::size_t sweep_budget = smoke ? 512 : 4096;
  constexpr double kTolerance = 1e-4;

  const clsim::Platform platform = archsim::default_platform();
  const clsim::Device device = platform.device_by_name(device_name);

  std::vector<BenchmarkAudit> audits;
  for (const auto& name : benchkit::benchmark_names()) {
    const auto benchmark = benchkit::make_benchmark_small(name);
    const clsim::analyze::StaticChecker checker =
        benchkit::make_static_checker(*benchmark, device);
    BenchmarkAudit audit;
    audit.name = name;

    common::Rng rng(seed);
    const auto sample = tuner::RandomSampler().sample(
        benchmark->space(), configs_per_benchmark, rng);
    audit.configs = sample.size();

    for (const auto& config : sample) {
      // Static verdict: the analyzer's proof, before any launch.
      const clsim::analyze::ConfigVerdict static_verdict =
          benchkit::check_config(checker, config);
      switch (static_verdict.verdict) {
        case Verdict::kProvedValid: ++audit.static_proved_valid; break;
        case Verdict::kProvedInvalid: ++audit.static_proved_invalid; break;
        case Verdict::kUnknown: ++audit.static_unknown; break;
      }

      // Driver verdict: static validation only, as the evaluator applies it.
      bool accepted = true;
      try {
        const benchkit::LaunchPlan plan = benchmark->prepare(device, config);
        if (plan.kernel.validate_launch(plan.global, plan.local) !=
            clsim::Status::kSuccess)
          accepted = false;
      } catch (const clsim::ClException& e) {
        if (!e.is_invalid_configuration()) throw;
        accepted = false;
      }
      if (!accepted) {
        ++audit.driver_invalid;
        // Soundness: a proof of validity contradicted by the driver.
        if (static_verdict.verdict == Verdict::kProvedValid) {
          ++audit.static_valid_but_rejected;
          if (audit.unsound_examples.size() < 3)
            audit.unsound_examples.push_back(
                "proved valid but driver rejected: " + describe(benchmark->space(), config));
        }
        continue;
      }
      ++audit.driver_valid;

      // clcheck verdict: instrumented functional run of the accepted config.
      const benchkit::CheckedVerification checked =
          benchmark->verify_checked(device, config);
      if (checked.max_abs_error > kTolerance) ++audit.functional_mismatch;
      if (checked.clean()) {
        ++audit.clcheck_clean;
        // Soundness: a proof of invalidity contradicted by both dynamic
        // signals (driver accepted AND sanitizer clean).
        if (static_verdict.verdict == Verdict::kProvedInvalid) {
          ++audit.static_invalid_but_accepted;
          if (audit.unsound_examples.size() < 3)
            audit.unsound_examples.push_back(
                "proved invalid (" + static_verdict.reason +
                ") but driver-accepted and clcheck-clean: " +
                describe(benchmark->space(), config));
        }
      } else {
        ++audit.clcheck_fault;
        for (std::size_t k = 0; k < clsim::check::kFindingKindCount; ++k)
          audit.finding_counts[k] += checked.report.count(
              static_cast<clsim::check::FindingKind>(k));
        if (audit.fault_examples.size() < 3 &&
            !checked.report.findings().empty())
          audit.fault_examples.push_back(
              checked.report.findings().front().to_string());
        // Soundness: a proof of validity contradicted by the sanitizer.
        if (static_verdict.verdict == Verdict::kProvedValid) {
          ++audit.static_valid_clcheck_fault;
          if (audit.unsound_examples.size() < 3)
            audit.unsound_examples.push_back(
                "proved valid but clcheck flagged: " + describe(benchmark->space(), config));
        }
      }
    }

    // Region sweep: how much of the whole space does the analyzer discharge
    // without enumerating configurations?
    audit.sweep = checker.sweep(sweep_budget);

    std::cout << "  " << name << ": " << audit.driver_valid << "/"
              << audit.configs << " driver-accepted, static "
              << audit.static_proved_valid << " valid / "
              << audit.static_proved_invalid << " invalid / "
              << audit.static_unknown << " unknown, " << audit.clcheck_fault
              << " clcheck fault(s), " << audit.unsound() << " unsound\n"
              << std::flush;
    for (const auto& example : audit.fault_examples)
      std::cout << "    " << example << "\n";
    for (const auto& example : audit.unsound_examples)
      std::cout << "    UNSOUND: " << example << "\n";
    audits.push_back(std::move(audit));
  }

  common::Table table({"Benchmark", "Configs", "Driver valid", "Static valid",
                       "Static invalid", "Static unknown", "Unsound",
                       "clcheck fault"});
  for (const auto& audit : audits) {
    table.add_row({audit.name, std::to_string(audit.configs),
                   std::to_string(audit.driver_valid),
                   std::to_string(audit.static_proved_valid),
                   std::to_string(audit.static_proved_invalid),
                   std::to_string(audit.static_unknown),
                   std::to_string(audit.unsound()),
                   std::to_string(audit.clcheck_fault)});
  }
  std::cout << "\n";
  table.print(std::cout);
  if (args.get("csv", false)) table.print_csv(std::cout);

  bench::ReportWriter report;
  report.set("device", device_name)
      .set("configs_per_benchmark", configs_per_benchmark)
      .set("seed", seed)
      .set("smoke", smoke)
      .set("tolerance", kTolerance);
  common::json::Value benchmarks = common::json::Value::array();
  for (const auto& audit : audits) {
    common::json::Value entry = common::json::Value::object();
    entry.set("name", audit.name);
    entry.set("configs", audit.configs);
    entry.set("driver_valid", audit.driver_valid);
    entry.set("driver_invalid", audit.driver_invalid);
    entry.set("clcheck_clean", audit.clcheck_clean);
    entry.set("driver_ok_clcheck_fault", audit.clcheck_fault);
    entry.set("functional_mismatch", audit.functional_mismatch);
    common::json::Value findings = common::json::Value::object();
    for (std::size_t k = 0; k < clsim::check::kFindingKindCount; ++k)
      findings.set(
          clsim::check::to_string(static_cast<clsim::check::FindingKind>(k)),
          audit.finding_counts[k]);
    entry.set("findings", std::move(findings));
    common::json::Value static_json = common::json::Value::object();
    static_json.set("proved_valid", audit.static_proved_valid);
    static_json.set("proved_invalid", audit.static_proved_invalid);
    static_json.set("unknown", audit.static_unknown);
    static_json.set("invalid_but_accepted", audit.static_invalid_but_accepted);
    static_json.set("valid_but_rejected", audit.static_valid_but_rejected);
    static_json.set("valid_clcheck_fault", audit.static_valid_clcheck_fault);
    common::json::Value sweep_json = common::json::Value::object();
    sweep_json.set("proved_valid_configs", audit.sweep.proved_valid_configs);
    sweep_json.set("proved_invalid_configs",
                   audit.sweep.proved_invalid_configs);
    sweep_json.set("unknown_configs", audit.sweep.unknown_configs);
    sweep_json.set("boxes_examined", audit.sweep.boxes_examined);
    sweep_json.set("boxes_discharged", audit.sweep.boxes_discharged);
    sweep_json.set("proved_fraction", audit.sweep.proved_fraction());
    static_json.set("sweep", std::move(sweep_json));
    entry.set("static", std::move(static_json));
    benchmarks.push(std::move(entry));
  }
  report.root().set("benchmarks", std::move(benchmarks));
  report.attach_telemetry(nullptr);
  report.write(out_path);

  // Non-zero exits for the two contradictions this audit exists to catch:
  // the sanitizer contradicting the driver (kernel reproduction bug, 2) and
  // the static analyzer contradicting the dynamic ground truth (unsound
  // constraint set, 3 — checked first, an unsound analyzer poisons every
  // consumer).
  std::size_t total_faults = 0;
  std::size_t total_unsound = 0;
  for (const auto& audit : audits) {
    total_faults += audit.clcheck_fault;
    total_unsound += audit.unsound();
  }
  if (total_unsound != 0) return 3;
  return total_faults == 0 ? 0 : 2;
}
