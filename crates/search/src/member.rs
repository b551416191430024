//! One population member: a tiny-proxy pretrain run owning its model,
//! optimizer, and data cursor, plus the clone/transplant machinery the
//! exploit step uses.

use std::io;

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel};
use apollo_optim::{AdamWChannelwise, Apollo, Optimizer};
use apollo_tensor::Rng;
use apollo_train::{
    eval_perplexity, param_updates, train_state_blob, LrSchedule, TrainMeta, TrainState,
};

use crate::driver::SearchConfig;
use crate::genome::{Genome, OptFamily};

/// Concrete optimizer behind a member. An enum (not `Box<dyn Optimizer>`)
/// so the exploit step can reach family-specific knob setters
/// ([`Apollo::set_update_freq`], the public `alpha` field) after a state
/// transplant.
#[derive(Debug)]
pub enum MemberOpt {
    /// APOLLO or APOLLO-Mini, distinguished by the genome's family.
    Apollo(Apollo),
    /// The channel-wise AdamW control.
    AdamWCw(AdamWChannelwise),
}

impl MemberOpt {
    /// Builds a fresh optimizer configured by `genome`. The APOLLO base
    /// seed stays at its crate default so per-parameter projector seeds
    /// remain position-derived and checkpoint resumes stay bit-exact.
    pub fn from_genome(genome: &Genome) -> MemberOpt {
        match genome.family {
            OptFamily::Apollo => MemberOpt::Apollo(
                Apollo::new(genome.rank.max(1), genome.update_freq).with_alpha(genome.alpha),
            ),
            OptFamily::ApolloMini => {
                MemberOpt::Apollo(Apollo::mini(genome.update_freq).with_alpha(genome.alpha))
            }
            OptFamily::AdamWChannelwise => MemberOpt::AdamWCw(AdamWChannelwise::new()),
        }
    }

    /// The trait-object view for the step loop and state (de)serialization.
    pub fn as_opt(&mut self) -> &mut dyn Optimizer {
        match self {
            MemberOpt::Apollo(o) => o,
            MemberOpt::AdamWCw(o) => o,
        }
    }

    /// Read-only trait-object view.
    pub fn as_opt_ref(&self) -> &dyn Optimizer {
        match self {
            MemberOpt::Apollo(o) => o,
            MemberOpt::AdamWCw(o) => o,
        }
    }

    /// Applies the transplant-safe knobs (α, projector refresh period) in
    /// place, preserving moments and projector bases. Layout-changing knobs
    /// (family, rank) require a rebuild via [`MemberOpt::from_genome`].
    pub fn apply_knobs(&mut self, genome: &Genome) {
        if let MemberOpt::Apollo(o) = self {
            o.alpha = genome.alpha;
            o.set_update_freq(genome.update_freq);
        }
    }
}

/// Clamp a perplexity to a finite value so reports and traces stay
/// JSON-serializable even if a mutated LR diverges the proxy run.
fn finite_ppl(p: f32) -> f32 {
    if p.is_finite() {
        p
    } else {
        f32::MAX
    }
}

/// The shared data source: every member streams the same corpus (its own
/// cursor) and evaluates on the same held-out set, so perplexities are
/// directly comparable.
pub fn base_batcher(cfg: &SearchConfig) -> LmBatcher {
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.model.vocab_size));
    LmBatcher::new(corpus, cfg.batch, cfg.model.max_seq)
}

/// One concurrent pretrain run in the population.
#[derive(Debug)]
pub struct Member {
    /// Population slot (stable across clones).
    pub id: usize,
    /// Current hyper-parameter assignment.
    pub genome: Genome,
    /// The model being trained.
    pub model: LlamaModel,
    /// The member's optimizer.
    pub opt: MemberOpt,
    /// Private data cursor over the shared corpus.
    pub batcher: LmBatcher,
    /// Optimizer steps taken so far.
    pub step: usize,
    /// Most recent eval perplexity (`f32::MAX` until first eval).
    pub last_ppl: f32,
}

impl Member {
    /// A fresh member: all members share one model-init seed (`cfg.seed`)
    /// and one data stream, so genomes are the only experimental variable.
    pub fn new(id: usize, genome: Genome, cfg: &SearchConfig) -> Member {
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let model = LlamaModel::new(&cfg.model, LinearMode::Dense, &mut rng);
        let opt = MemberOpt::from_genome(&genome);
        Member {
            id,
            genome,
            model,
            opt,
            batcher: base_batcher(cfg),
            step: 0,
            last_ppl: f32::MAX,
        }
    }

    /// Runs `steps` optimizer steps under the genome's warmup+cosine
    /// schedule (defined over the search's full `total_steps` budget, so a
    /// member's schedule position survives cloning).
    pub fn train_segment(&mut self, steps: usize, total_steps: usize) {
        let schedule = LrSchedule {
            peak_lr: self.genome.peak_lr,
            total_steps,
            warmup_frac: self.genome.warmup_frac,
            min_lr_frac: 0.1,
        };
        for _ in 0..steps {
            let (tokens, targets) = self.batcher.next_batch();
            let (mut graph, loss_id, pnodes) =
                self.model
                    .build_loss(&tokens, &targets, self.batcher.batch());
            graph.backward(loss_id);
            let grads = self.model.take_grads(&mut graph, &pnodes);
            drop(graph);
            let lr = schedule.lr_at(self.step);
            let mut updates = param_updates(&mut self.model, &grads);
            self.opt.as_opt().step(&mut updates, lr);
            self.step += 1;
        }
    }

    /// Evaluates held-out perplexity, records and returns it.
    pub fn eval(&mut self, eval_seqs: usize) -> f32 {
        let ppl = eval_perplexity(&self.model, &self.batcher, eval_seqs)
            .expect("search configs require eval_seqs > 0");
        self.last_ppl = finite_ppl(ppl);
        self.last_ppl
    }

    /// Serializes the member's full train state (weights, optimizer
    /// moments/projectors, step, data cursor) as an in-memory v2
    /// checkpoint blob — the same format the disk path writes.
    pub fn snapshot(&self) -> io::Result<Vec<u8>> {
        let optimizer = self
            .opt
            .as_opt_ref()
            .state_save()
            .map_err(io::Error::other)?;
        let meta = TrainMeta {
            step: self.step as u64,
            data_cursor: self.batcher.cursor(),
            rng_state: Vec::new(),
            rng_spare: None,
            lr_scale: 1.0,
            spike_window: Vec::new(),
            report: Default::default(),
        };
        train_state_blob(&self.model, LinearMode::Dense, &meta, &optimizer)
    }

    /// Rebuilds a member from a leader's snapshot `blob`, re-configured to
    /// `genome`. `donor` is the leader's genome (the configuration the blob
    /// was saved under). When the mutation is transplant-compatible the
    /// donor's optimizer state is restored verbatim and the new knobs are
    /// applied in place; otherwise (rank/family change) the weights and
    /// data cursor transfer but the optimizer restarts fresh. Returns the
    /// member and `"transplanted"` / `"reset"` for the lineage log.
    pub fn restore(
        id: usize,
        blob: &[u8],
        donor: &Genome,
        genome: Genome,
        cfg: &SearchConfig,
    ) -> io::Result<(Member, &'static str)> {
        let state = TrainState::from_blob(blob)?;
        let (opt, outcome) = if donor.transplant_ok(&genome) {
            let mut opt = MemberOpt::from_genome(donor);
            opt.as_opt()
                .state_load(&state.optimizer)
                .map_err(io::Error::other)?;
            opt.apply_knobs(&genome);
            (opt, "transplanted")
        } else {
            (MemberOpt::from_genome(&genome), "reset")
        };
        let mut batcher = base_batcher(cfg);
        batcher.set_cursor(state.meta.data_cursor);
        Ok((
            Member {
                id,
                genome,
                model: state.model,
                opt,
                batcher,
                step: state.meta.step as usize,
                last_ppl: f32::MAX,
            },
            outcome,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_tensor::Matrix;

    fn weights(m: &Member) -> Vec<Matrix> {
        m.model.params.iter().map(|p| p.value.clone()).collect()
    }

    fn tiny_cfg() -> SearchConfig {
        SearchConfig {
            batch: 2,
            eval_seqs: 4,
            ..SearchConfig::tiny(11)
        }
    }

    /// Satellite property: perturbing the transplant-safe knobs (peak LR
    /// and projector refresh period) at a round boundary and resuming from
    /// the cloned blob is bit-identical to mutating the live member in
    /// place and continuing — clone-and-perturb and live-perturb are the
    /// same trajectory.
    #[test]
    fn clone_perturb_resume_matches_live_perturbed_run() {
        let cfg = tiny_cfg();
        let mut genome = Genome::seed_for(OptFamily::Apollo, &cfg.model);
        genome.rank = 2;
        genome.update_freq = 4; // refresh fires inside both segments
        let mut live = Member::new(0, genome.clone(), &cfg);
        live.train_segment(6, 12);
        let blob = live.snapshot().unwrap();

        let mut mutated = genome.clone();
        mutated.peak_lr *= 1.25;
        mutated.update_freq = 2;
        assert!(genome.transplant_ok(&mutated));

        // Path 1: PBT exploit — restore the blob under the mutated genome.
        let (mut cloned, outcome) =
            Member::restore(1, &blob, &genome, mutated.clone(), &cfg).unwrap();
        assert_eq!(outcome, "transplanted");
        assert_eq!(cloned.step, 6);
        cloned.train_segment(6, 12);

        // Path 2: mutate the live member in place and continue.
        live.genome = mutated;
        live.opt.apply_knobs(&live.genome);
        live.train_segment(6, 12);

        assert_eq!(weights(&live), weights(&cloned));
        assert_eq!(
            live.opt.as_opt_ref().state_save().unwrap(),
            cloned.opt.as_opt_ref().state_save().unwrap(),
            "optimizer state must match bit-for-bit"
        );
        assert_eq!(live.eval(4), cloned.eval(4));
    }

    #[test]
    fn layout_changing_mutation_resets_the_optimizer() {
        let cfg = tiny_cfg();
        let mut genome = Genome::seed_for(OptFamily::Apollo, &cfg.model);
        genome.rank = 2;
        genome.update_freq = 4;
        let mut m = Member::new(0, genome.clone(), &cfg);
        m.train_segment(3, 12);
        let blob = m.snapshot().unwrap();

        let mut reranked = genome.clone();
        reranked.rank = 4;
        let (mut fresh, outcome) = Member::restore(1, &blob, &genome, reranked, &cfg).unwrap();
        assert_eq!(outcome, "reset");
        // Weights and cursor transferred; the fresh optimizer trains on.
        assert_eq!(weights(&m), weights(&fresh));
        assert_eq!(fresh.batcher.cursor(), m.batcher.cursor());
        fresh.train_segment(3, 12);
        assert_eq!(fresh.step, 6);
        assert!(fresh.eval(4).is_finite());
    }

    #[test]
    fn all_families_train_and_snapshot() {
        let cfg = tiny_cfg();
        for family in [
            OptFamily::Apollo,
            OptFamily::ApolloMini,
            OptFamily::AdamWChannelwise,
        ] {
            let genome = Genome::seed_for(family, &cfg.model);
            let mut m = Member::new(0, genome.clone(), &cfg);
            m.train_segment(2, 8);
            let ppl = m.eval(4);
            assert!(ppl.is_finite(), "{family:?}");
            let blob = m.snapshot().unwrap();
            let (restored, outcome) =
                Member::restore(0, &blob, &genome, genome.clone(), &cfg).unwrap();
            assert_eq!(outcome, "transplanted");
            assert_eq!(restored.step, 2);
        }
    }
}
