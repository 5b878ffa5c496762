//! The timed binary: system allocator, end-to-end metrics, and the suite.

fn main() -> std::process::ExitCode {
    opr_benchmark::main_with(false)
}
