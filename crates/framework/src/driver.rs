//! The one event loop: next input → deliver → route commands.
//!
//! Both executors are an [`InputSource`] under one [`Driver`]: the
//! simulator's future-event queue (`hyperdrive-sim`) and the live
//! executor's node agents ([`LiveRun`](crate::LiveRun)). The driver owns
//! the engine, the command buffer, the clock, the journal position and the
//! rule that ends a run; resuming a killed run is the same loop stepping
//! through the journaled prefix ([`Driver::replay`]).

use hyperdrive_types::{Result, SimTime};

use crate::engine::{Command, EngineInput, ExperimentEngine};
use crate::experiment::ExperimentResult;
use crate::journal::Journal;

/// Where a [`Driver`]'s inputs come from and where its commands go.
pub trait InputSource {
    /// The next input after [`EngineInput::Start`] and the executor time it
    /// happened at, or `None` once nothing more can arrive. Times never
    /// decrease.
    fn next_input(&mut self) -> Option<(SimTime, EngineInput)>;

    /// Carries out the commands the engine produced for the input it was
    /// handed at `now`. [`Command::Stop`] needs nothing: the driver stops.
    fn route(&mut self, now: SimTime, cmds: &[Command]);
}

/// Drives one experiment's engine from an [`InputSource`].
pub struct Driver<'w, 'p, S> {
    engine: ExperimentEngine<'w, 'p>,
    source: S,
    /// Reusable command buffer: the engine writes each input's follow-up
    /// batch here, so the steady-state step allocates nothing.
    cmds: Vec<Command>,
    now: SimTime,
    stopping: bool,
    /// Inputs delivered so far; each journals one input record, so this is
    /// also the journal position.
    delivered: u64,
}

impl<'w, 'p, S: InputSource> Driver<'w, 'p, S> {
    /// Delivers [`EngineInput::Start`] at time zero — the initial
    /// `AllocateJobs` up-call — and routes its commands.
    pub fn start(engine: ExperimentEngine<'w, 'p>, source: S) -> Self {
        let (cmds, now) = (Vec::new(), SimTime::ZERO);
        let mut driver = Driver { engine, source, cmds, now, stopping: false, delivered: 0 };
        driver.deliver(SimTime::ZERO, EngineInput::Start);
        driver
    }

    /// Steps through the first `inputs` inputs of the recovered journal the
    /// engine was built on, which verifies every record they regenerate,
    /// and ends its replay: the run continues where the dead process
    /// stopped.
    ///
    /// # Errors
    ///
    /// [`Error::JournalDiverged`](hyperdrive_types::Error::JournalDiverged)
    /// if the steps regenerate different inputs or records than `journal`
    /// holds (wrong policy, workload, spec, or plan).
    pub fn replay(mut self, journal: &Journal, inputs: u64) -> Result<Self> {
        self.run_to_input(inputs);
        journal.finish_replay()?;
        Ok(self)
    }

    fn deliver(&mut self, now: SimTime, input: EngineInput) {
        self.now = now;
        self.delivered += 1;
        self.engine.deliver(input, now, &mut self.cmds);
        // The one stop rule: the engine stopped (goal or `Tmax`; a `Stop`
        // in the batch always comes with it), or every job reached a
        // terminal state, so whatever the source still holds is a fault or
        // a stale report that can no longer matter.
        self.stopping = self.engine.stopped() || self.engine.active_job_count() == 0;
        self.source.route(now, &self.cmds);
    }

    /// Delivers the source's next input and routes the commands it
    /// produced. `None` once the experiment is over: the stop rule fired or
    /// the source ran dry.
    pub fn step_input(&mut self) -> Option<(SimTime, EngineInput)> {
        if self.stopping {
            return None;
        }
        let (now, input) = self.source.next_input()?;
        self.deliver(now, input);
        Some((now, input))
    }

    /// Runs until `position` inputs have been delivered (and journaled) or
    /// the experiment is over. Dropping the run there, unsealed, is a
    /// process kill right after its `position`-th input.
    pub fn run_to_input(&mut self, position: u64) {
        while self.delivered < position && self.step_input().is_some() {}
    }

    /// Inputs delivered so far, the initial `Start` included.
    pub fn inputs_delivered(&self) -> u64 {
        self.delivered
    }

    /// Executor time of the last delivered input.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True once the stop rule has fired.
    pub fn stopping(&self) -> bool {
        self.stopping
    }

    /// The input source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Runs the experiment to its end and produces the result.
    pub fn run(mut self) -> ExperimentResult {
        while self.step_input().is_some() {}
        self.finish()
    }

    /// Produces the experiment result, sealing the journal.
    pub fn finish(self) -> ExperimentResult {
        self.engine.into_result(self.now)
    }
}
