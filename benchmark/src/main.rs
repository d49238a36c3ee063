#[global_allocator]
static ALLOC: oll_benchmark::alloc::CountingAlloc = oll_benchmark::alloc::CountingAlloc;

fn main() {
    std::process::exit(oll_benchmark::cli::main());
}
