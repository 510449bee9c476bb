//! Regenerates the paper's fig8 (see au_bench::experiments::fig8).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[fig8] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::fig8::run(scale);
}
