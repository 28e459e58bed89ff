//! Speculative fit-prefetch equivalence: prefetch changes *when* a fit
//! computes, never *what* it computes. The POP cells of the differential
//! harness (`tests/harness`) that turn prefetch on keep their names here:
//! at 1 and at 4 fit threads against the prefetch-off reference (each cell
//! must speculate and adopt), and killed and resumed with prefetch on.

#[macro_use]
mod harness;

cells! {
    prefetch_cube_is_byte_identical: Pop, Prefetch(&[1]);
    prefetch_cells_actually_speculate: Pop, Prefetch(&[4]);
    kill_at_every_event_with_prefetch_enabled: Pop, Killed { prefetch: true };
}
