//! Regenerates the paper's table10 (see au_bench::experiments::table10).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[table10] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::table10::run(scale);
}
