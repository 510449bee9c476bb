//! Regenerates the paper's table14 (see au_bench::experiments::table14).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[table14] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::table14::run(scale);
}
