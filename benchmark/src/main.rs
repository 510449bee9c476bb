fn main() {
    std::process::exit(au_benchmark::cli::main(std::env::args().skip(1).collect()));
}
