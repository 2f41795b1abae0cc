//! `gd-bench`: regenerates the figures and tables of the GreenDIMM
//! evaluation. See [`gd_bench::driver`] for the commands.

#[allow(clippy::exit)] // the exit code is the command's result
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(gd_bench::driver::main(&args));
}
