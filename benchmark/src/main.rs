fn main() -> std::process::ExitCode {
    edm_benchmark::cli::main(std::env::args().skip(1).collect())
}
