//! Prints the reproduction of one table or figure of §VII (see
//! EXPERIMENTS.md), or all of them in paper order.
//!
//! ```text
//! report NAME    one of the names in `netcl_bench::REPORTS`, e.g. `table3`
//! report all     every report, a blank line after each
//! ```
use netcl_bench::REPORTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.as_slice() {
        [name] => name.as_str(),
        _ => usage("expected exactly one report name"),
    };
    if name == "all" {
        for (_, render) in REPORTS {
            println!("{}", render());
        }
    } else if let Some((_, render)) = REPORTS.iter().find(|(n, _)| *n == name) {
        print!("{}", render());
    } else {
        usage(&format!("unknown report `{name}`"));
    }
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = REPORTS.iter().map(|(n, _)| *n).collect();
    eprintln!("error: {problem}\nusage: report <all|{}>", names.join("|"));
    std::process::exit(2);
}
