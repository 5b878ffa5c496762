//! The traced binary: the same program under the counting allocator, for
//! the traced pass and the `allocs_per_name` count.

use opr_benchmark::alloc::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    opr_benchmark::main_with(true)
}
