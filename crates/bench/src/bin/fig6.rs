//! Regenerates the paper's fig6 (see au_bench::experiments::fig6).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[fig6] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::fig6::run(scale);
}
