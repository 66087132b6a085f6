// Read-mapping demo: the application context of the paper's introduction.
//
// Builds a synthetic reference genome, samples reads with sequencing
// errors, maps them with the seed-and-extend mapper (k-mer seeding +
// gap-affine seed extension — the step WFAsic accelerates), and reports
// mapping accuracy. A second phase submits the mapped read/window pairs
// to the asynchronous alignment engine while a seeded fault campaign is
// active, demonstrating that the engine's resilient path still completes
// the batch with the mapper's scores.
#include <cstdio>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"
#include "map/mapper.hpp"
#include "sim/fault_injector.hpp"

int main(int argc, char** argv) {
  using namespace wfasic;

  const std::size_t ref_len = argc > 1 ? std::stoul(argv[1]) : 100'000;
  const std::size_t num_reads = argc > 2 ? std::stoul(argv[2]) : 200;
  const std::size_t read_len = argc > 3 ? std::stoul(argv[3]) : 250;
  const double error_rate = argc > 4 ? std::stod(argv[4]) : 0.05;

  Prng prng(0xcafe);
  std::printf("Building a %zu bp synthetic reference and its 15-mer index...\n",
              ref_len);
  map::ReadMapper mapper(gen::random_sequence(prng, ref_len));
  std::printf("  %zu distinct k-mers indexed (%zu repeat-masked)\n",
              mapper.index().distinct_kmers(), mapper.index().masked_kmers());

  std::printf(
      "Mapping %zu reads of %zu bp at %.0f%% sequencing error...\n\n",
      num_reads, read_len, error_rate * 100);

  std::size_t mapped = 0;
  std::size_t correct = 0;
  std::size_t total_score = 0;
  std::vector<gen::SequencePair> accel_pairs;   // read vs mapped window
  std::vector<wfasic::score_t> mapper_scores;   // reference answers
  for (std::size_t r = 0; r < num_reads; ++r) {
    const std::size_t origin =
        prng.next_below(ref_len - read_len);
    const std::string read = gen::mutate_sequence(
        prng, mapper.reference().substr(origin, read_len), error_rate);
    const map::Mapping m = mapper.map(read);
    if (!m.mapped) continue;
    ++mapped;
    if (accel_pairs.size() < 64) {
      // Global alignment of the read against exactly the window the
      // extension consumed reproduces the semiglobal extension score.
      accel_pairs.push_back(
          {static_cast<std::uint32_t>(accel_pairs.size()), read,
           mapper.reference().substr(m.position, m.ref_end - m.position)});
      mapper_scores.push_back(m.score);
    }
    total_score += static_cast<std::size_t>(m.score);
    const std::size_t delta = m.position > origin ? m.position - origin
                                                  : origin - m.position;
    if (delta <= 20) ++correct;
    if (r < 5) {
      std::printf("  read %3zu: origin %7zu -> mapped %7zu  score %3d  %s\n",
                  r, origin, m.position, m.score,
                  m.cigar.rle().substr(0, 48).c_str());
    }
  }

  std::printf("\nSummary: %zu/%zu mapped, %zu placed within 20 bp of their "
              "origin\n",
              mapped, num_reads, correct);
  std::printf("Mean gap-affine distance per mapped read: %.1f\n",
              mapped > 0 ? static_cast<double>(total_score) /
                               static_cast<double>(mapped)
                         : 0.0);
  // Reads at this error rate should essentially always map back home.
  if (mapped < num_reads * 9 / 10 || correct < mapped * 9 / 10) return 1;

  // --- Phase 2: submit the extensions to the alignment engine under
  // faults.
  //
  // The same read/window pairs go through the engine's asynchronous
  // resilient path with a seeded fault campaign active on its device (bit
  // flips in the input region, a bus error, a dropped beat, FIFO stalls):
  // damaged launches requeue through the bisect path, and anything the
  // hardware cannot complete falls back to the software backend. Every
  // pair must still resolve with the scores the mapper computed.
  std::printf("\nSubmitting %zu extensions to the alignment engine under "
              "a seeded fault campaign...\n",
              accel_pairs.size());
  engine::EngineConfig engine_cfg;
  engine_cfg.num_devices = 1;
  engine_cfg.device.memory_bytes = 64 << 20;
  engine_cfg.device.in_addr = 0x1000;
  engine_cfg.device.out_addr = 0x2000000;
  engine_cfg.device.watchdog = 50'000;
  engine::Engine eng(engine_cfg);

  sim::FaultInjector::CampaignConfig campaign;
  campaign.mem_begin = engine_cfg.device.in_addr;
  campaign.mem_end = engine_cfg.device.in_addr + 16'384;
  campaign.mem_bit_flips = 3;
  campaign.axi_errors = 1;
  campaign.dropped_beats = 1;
  campaign.fifo_stalls = 1;
  sim::FaultInjector injector =
      sim::FaultInjector::make_campaign(0xbeef, campaign);
  eng.device(0).attach_fault_injector(&injector);

  const engine::ResilientReport report = eng.run_resilient(accel_pairs);

  std::size_t score_matches = 0;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    if (report.outcomes[i].resolved &&
        report.outcomes[i].result.score == mapper_scores[i]) {
      ++score_matches;
    }
  }
  std::printf("  %u launches (%u retries), %u CPU fallbacks, %u faults "
              "fired\n",
              report.launches, report.retries, report.cpu_fallbacks,
              static_cast<unsigned>(injector.fired_count()));
  std::printf("  %zu/%zu pairs resolved with the mapper's score\n",
              score_matches, accel_pairs.size());
  return (report.complete() && score_matches == accel_pairs.size()) ? 0 : 1;
}
