//! `paper <name>` prints one table or figure of the paper's evaluation,
//! the paper's numbers beside the reproduction's; with no name it lists
//! the names (`rb_bench::TABLES`).

use rb_bench::TABLES;

fn main() {
    let name = std::env::args().nth(1);
    match TABLES.iter().find(|(n, _)| Some(*n) == name.as_deref()) {
        Some((_, tables)) => {
            for table in tables() {
                println!("{table}");
            }
        }
        None => {
            let names: Vec<&str> = TABLES.iter().map(|(n, _)| *n).collect();
            println!("usage: paper <name>\nnames: {}", names.join(" "));
            if let Some(name) = name {
                eprintln!("paper: no table named `{name}`");
                std::process::exit(2);
            }
        }
    }
}
