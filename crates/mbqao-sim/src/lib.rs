//! Statevector quantum simulator for the `mbqao` workspace.
//!
//! Two consumers drive the design:
//!
//! 1. **Gate-model QAOA** (`mbqao-qaoa`) applies layered circuits to a
//!    fixed register and needs fast 1-/2-qubit kernels, diagonal phase
//!    application, expectation values and sampling.
//! 2. **Measurement patterns** (`mbqao-mbqc`) allocate ancilla qubits on
//!    the fly, measure them mid-circuit in arbitrary bases (XY/XZ/YZ
//!    planes), and *remove* them from the register once measured. The
//!    paper's protocols need thousands of ancillas in total but only a few
//!    alive at a time (the qubit-reuse observation of \[51\]); the simulator
//!    therefore supports dynamic qubit allocation and deallocation so the
//!    live register — not the total ancilla count — bounds memory.
//!
//! Qubits are named by opaque [`QubitId`]s; positions inside the
//! statevector are an implementation detail. Kernels run on the calling
//! thread; callers parallelize across independent evaluations.

pub mod circuit;
pub mod register;
pub mod state;

pub use circuit::{Circuit, Gate};
pub use register::QubitId;
pub use state::{MeasBasis, State};
