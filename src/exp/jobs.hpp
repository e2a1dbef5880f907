// Built-in campaign job kinds — the paper's recipe steps as executors.
//
// Target names resolve through the core:: registries (core/registry.hpp),
// so the lists below never go stale: unknown names fail with the live
// registry enumerated, and `netadv_cli list` prints what is available.
// The train/record/replay kinds are domain-neutral — `domain = abr`
// (default) attacks an ABR protocol, `domain = cc` attacks a congestion
// controller over the Table-1 link:
//
//   gen-traces       generator=<trace_generators()>  count=N
//                    -> <id>_traces.csv
//   train-adversary  domain=abr protocol=<abr_protocols()>  steps=N
//                    -> <id>_adversary.ckpt  (PPO, Section 3 topology)
//                    domain=cc  protocol=<cc_senders()>  steps=N
//                    [duration=<episode seconds>]
//                    -> <id>_adversary.ckpt  (PPO, Section 4 topology)
//   record-traces    domain=abr protocol=... count=N  and either
//                    from=<train job> (roll out its checkpoint) or
//                    adversary=cem (population=, iterations= — trace-based
//                    search; searching *is* recording)
//                    -> <id>_traces.csv, <id>_summary.csv (per-trace regret)
//                    domain=cc  protocol=... count=N from=<train job>
//                    [duration=...]
//                    -> <id>_traces.csv (30-ms link schedules),
//                       <id>_summary.csv (per-episode utilization)
//   replay           domain=abr protocol=...  traces=<trace-set job>
//                    -> <id>_qoe.csv (QoE per trace)
//                    domain=cc  protocol=...  traces=<trace-set job>
//                    -> <id>_replay.csv (utilization + throughput per trace)
//   serve            protocol=<abr_protocols()>  qoe=<qoe_models()>
//                    sessions=N  traces=<trace-set job> (or trace_file=)
//                    -> <id>_sessions.csv (per-session summaries via
//                       serve::SessionEngine; deterministic — throughput
//                       numbers only appear in the job note)
//   robustify-round  one Section-2.3 round: continue Pensieve from
//                    init=<prev round> (or fresh), train an adversary
//                    against it, record traces, retrain on the augmented
//                    corpus (corpus_from=<gen job> plus traces_from=<prev
//                    rounds>); protocol_steps=, inject_fraction=,
//                    adversary_steps=, traces=, eval_set=, eval_count=
//                    -> <id>_pensieve.ckpt, <id>_traces.csv, <id>_metrics.csv
//   train-protocol   plain Pensieve training (the co-training loop's
//                    generation step): corpus_from=/train_set= as above,
//                    init=<prev checkpoint job>, steps=N, and optionally
//                    exploit_from=<record jobs> + top_k=N to append the k
//                    most-exploiting adversaries' recorded corpora (ranked
//                    by their summaries' mean regret)
//                    -> <id>_pensieve.ckpt (v3, with provenance meta)
//   eval-matrix      corpora=<record jobs> checkpoints=<training jobs>
//                    -> <id>_matrix.csv (adversary x checkpoint regret
//                       matrix via core::eval_matrix, %.17g cells),
//                       <id>_worst.csv (per-column worst case)
//   promote          matrix_from=<eval-matrix job> checkpoints=<training
//                    jobs, column order> — byte-copies the least-
//                    exploitable checkpoint forward
//                    -> <id>_pensieve.ckpt, <id>_promotion.csv
//
// Checkpoint-store integration (core/checkpoint_store.hpp): any job that
// writes a checkpoint (train-adversary, train-protocol, promote) also
// publishes it when given `store_name = <population>` plus an explicit
// `store_version = K` — into `store_dir =` or, by default,
// `<out_dir>/store`. Store refs (`protocol = pensieve@<name>[@vK]`)
// resolve against the same root, so a promoted champion is targetable from
// any later job without naming the job that produced it.
//
// The `pensieve` protocol entry additionally takes `checkpoint = <path>` or
// `checkpoint_from = <job id>` (resolved to that job's _pensieve.ckpt), so
// robustified policies can themselves be attacked/replayed by name.
//
// Step budgets and corpus sizes honor NETADV_SCALE exactly like the bench
// binaries (util::scaled_steps), so `NETADV_SCALE=0.01` smoke-runs a whole
// campaign.
//
// The idempotence contract (what every executor here upholds, and what any
// registered kind must uphold): an executor is a pure function of
// (params, resolved seed, input artifacts). No wall-clock timestamps, no
// ambient randomness, no hidden global state — seeds come pre-forked from
// the campaign declaration (resolve_job_seeds), and every random draw
// flows from them. Because of that, *re-executing a job is always safe*:
// it rewrites the same artifact bytes. That one property is what the
// whole provenance stack leans on — campaign artifacts are bit-identical
// at any thread count and at any spool worker count, --resume can trust
// params_hash + inputs_hash instead of timestamps, and a spool worker
// whose claim was spuriously stolen (spool.hpp) can harmlessly race a
// peer re-running the same job.
#pragma once

#include "exp/scheduler.hpp"

namespace netadv::exp {

/// Registry with every built-in kind above (the CLI's default).
JobRegistry builtin_jobs();

}  // namespace netadv::exp
