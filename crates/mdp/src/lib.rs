//! # recovery-mdp
//!
//! A small, generic toolkit for finite Markov decision processes and
//! tabular Q-learning, written for the `autorecover` workspace but free of
//! any recovery-specific types.
//!
//! The reproduced paper (Zhu & Yuan, DSN 2007) casts error recovery as a
//! *cost-minimizing* MDP — the "reward" is repair time and the objective is
//! to minimize expected cumulative cost with discount γ = 1 (§2.1–2.2).
//! This crate therefore speaks in **costs everywhere**: smaller Q is
//! better, greedy selection takes the minimum, and Boltzmann exploration
//! weights actions by `exp(-Q/T)` (the paper's Eq. 5).
//!
//! Pieces:
//!
//! * [`QTable`] — table-lookup Q-function with per-pair visit counts and
//!   the paper's Eq. 6 update rule `α = 1 / (1 + visits(s, a))`;
//! * [`BoltzmannSelector`] + [`TemperatureSchedule`] — annealed softmax
//!   exploration;
//! * [`Environment`] — the episodic sampling interface Q-learning drives;
//! * [`QLearning`] — the training loop with sweep-based convergence
//!   detection (used for the paper's Figure 13 sweep counts);
//! * [`DoubleQLearning`] — the double-estimator variant that cancels the
//!   min-backup's optimizer's-curse bias (an ablation arm motivated by
//!   this reproduction's own convergence analysis);
//! * [`TabularMdp`] + [`value_iteration`] — an explicit finite MDP and an
//!   exact dynamic-programming solver, used to certify that Q-learning
//!   converges to the optimal policy on known models.
//!
//! ```
//! use recovery_mdp::{TabularMdp, value_iteration, QLearning, QLearningConfig, SampledMdp};
//! use rand::SeedableRng;
//!
//! // A 2-state chain: action 0 is cheap but loops, action 1 is dear but
//! // reaches the terminal state.
//! let mut mdp = TabularMdp::new(2, 2);
//! mdp.set_cost(0, 0, 1.0);
//! mdp.add_transition(0, 0, 1.0, 0);
//! mdp.set_cost(0, 1, 3.0);
//! mdp.add_transition(0, 1, 1.0, 1);
//! mdp.set_terminal(1);
//!
//! let exact = value_iteration(&mdp, 0.95, 1e-9, 10_000);
//! let mut env = SampledMdp::new(&mdp, rand::rngs::StdRng::seed_from_u64(7), vec![0]);
//! let trained = QLearning::new(QLearningConfig::default())
//!     .train(&mut env, &mut rand::rngs::StdRng::seed_from_u64(8));
//! let q_best = trained.q.best_action(&0, &[0, 1]).unwrap();
//! assert_eq!(q_best.0, exact.policy[0].unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod boltzmann;
mod dense;
mod double_q;
mod env;
mod qlearning;
mod qtable;
mod tabular;

pub use boltzmann::{BoltzmannSelector, TemperatureCourse, TemperatureSchedule};
pub use dense::{DenseEnvironment, DenseQTable, DenseStep, DenseTrainResult};
pub use double_q::DoubleQLearning;
pub use env::{Environment, SampledMdp, Step};
pub use qlearning::{QLearning, QLearningConfig, TrainResult};
pub use qtable::QTable;
pub use tabular::{value_iteration, TabularMdp, ValueIterationResult};

#[cfg(test)]
mod thread_bounds {
    //! The trainer fans per-type Q-learning out across scoped threads;
    //! these assertions pin the `Send`/`Sync` bounds that fan-out relies
    //! on, so a future non-thread-safe field (an `Rc`, a raw pointer)
    //! fails here instead of deep inside `recovery-core`.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn learning_internals_are_send_and_sync() {
        assert_send_sync::<QTable<u64, u8>>();
        assert_send_sync::<QLearning>();
        assert_send_sync::<DoubleQLearning>();
        assert_send_sync::<QLearningConfig>();
        assert_send_sync::<TrainResult<u64, u8>>();
        assert_send_sync::<BoltzmannSelector>();
        assert_send_sync::<TemperatureSchedule>();
        assert_send_sync::<DenseQTable>();
        assert_send_sync::<DenseTrainResult>();
        assert_send_sync::<DenseStep>();
    }
}
