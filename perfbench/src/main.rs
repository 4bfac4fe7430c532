//! Command-line entry point of the repository benchmark; see the crate
//! docs of `defcon_perfbench` for the workloads and metrics.

use defcon_perfbench::{serve, t2, t3, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <t3_r101|t2_exhaustive|serve_zipf> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "t3_r101" => t3::run(&args),
        "t2_exhaustive" => t2::run(&args),
        _ => serve::run(&args),
    };
    println!("{}", result.to_json());
}
