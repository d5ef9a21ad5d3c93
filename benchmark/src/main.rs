fn main() {
    std::process::exit(mdd_benchmark::cli::main(std::env::args().skip(1).collect()));
}
