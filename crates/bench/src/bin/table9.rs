//! Regenerates the paper's table9 (see au_bench::experiments::table9).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[table9] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::table9::run(scale);
}
