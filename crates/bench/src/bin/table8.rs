//! Regenerates the paper's table8 (see au_bench::experiments::table8).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[table8] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::table8::run(scale);
}
