// Generated by the GASPARD2 OpenCL chain: host driver.
#include <CL/cl.h>
#include <cstdio>
#include <cstdlib>

int process_frame(cl_context ctx, cl_command_queue queue, cl_program program,
                  const int* h_fg_ch0, const int* h_fg_ch1, const int* h_fg_ch2,
                  int* h_vf_rvf_fout, int* h_vf_gvf_fout, int* h_vf_bvf_fout) {
    cl_mem d_fg_ch0 = clCreateBuffer(ctx, CL_MEM_READ_WRITE, 2073600u * sizeof(int), NULL, NULL);
    cl_mem d_fg_ch1 = clCreateBuffer(ctx, CL_MEM_READ_WRITE, 2073600u * sizeof(int), NULL, NULL);
    cl_mem d_fg_ch2 = clCreateBuffer(ctx, CL_MEM_READ_WRITE, 2073600u * sizeof(int), NULL, NULL);
    cl_mem d_hf_rhf_fout = clCreateBuffer(ctx, CL_MEM_READ_WRITE, 777600u * sizeof(int), NULL, NULL);
    cl_mem d_hf_ghf_fout = clCreateBuffer(ctx, CL_MEM_READ_WRITE, 777600u * sizeof(int), NULL, NULL);
    cl_mem d_hf_bhf_fout = clCreateBuffer(ctx, CL_MEM_READ_WRITE, 777600u * sizeof(int), NULL, NULL);
    cl_mem d_vf_rvf_fout = clCreateBuffer(ctx, CL_MEM_READ_WRITE, 345600u * sizeof(int), NULL, NULL);
    cl_mem d_vf_gvf_fout = clCreateBuffer(ctx, CL_MEM_READ_WRITE, 345600u * sizeof(int), NULL, NULL);
    cl_mem d_vf_bvf_fout = clCreateBuffer(ctx, CL_MEM_READ_WRITE, 345600u * sizeof(int), NULL, NULL);

    clEnqueueWriteBuffer(queue, d_fg_ch0, CL_FALSE, 0, 2073600u * sizeof(int), h_fg_ch0, 0, NULL, NULL);
    clEnqueueWriteBuffer(queue, d_fg_ch1, CL_FALSE, 0, 2073600u * sizeof(int), h_fg_ch1, 0, NULL, NULL);
    clEnqueueWriteBuffer(queue, d_fg_ch2, CL_FALSE, 0, 2073600u * sizeof(int), h_fg_ch2, 0, NULL, NULL);

    cl_kernel k_hf_rhf = clCreateKernel(program, "hf_rhf", NULL);
    clSetKernelArg(k_hf_rhf, 0, sizeof(cl_mem), &d_hf_rhf_fout);
    clSetKernelArg(k_hf_rhf, 1, sizeof(cl_mem), &d_fg_ch0);
    size_t g_hf_rhf = 259328u, l_hf_rhf = 256u;
    clEnqueueNDRangeKernel(queue, k_hf_rhf, 1, NULL, &g_hf_rhf, &l_hf_rhf, 0, NULL, NULL);
    cl_kernel k_hf_ghf = clCreateKernel(program, "hf_ghf", NULL);
    clSetKernelArg(k_hf_ghf, 0, sizeof(cl_mem), &d_hf_ghf_fout);
    clSetKernelArg(k_hf_ghf, 1, sizeof(cl_mem), &d_fg_ch1);
    size_t g_hf_ghf = 259328u, l_hf_ghf = 256u;
    clEnqueueNDRangeKernel(queue, k_hf_ghf, 1, NULL, &g_hf_ghf, &l_hf_ghf, 0, NULL, NULL);
    cl_kernel k_hf_bhf = clCreateKernel(program, "hf_bhf", NULL);
    clSetKernelArg(k_hf_bhf, 0, sizeof(cl_mem), &d_hf_bhf_fout);
    clSetKernelArg(k_hf_bhf, 1, sizeof(cl_mem), &d_fg_ch2);
    size_t g_hf_bhf = 259328u, l_hf_bhf = 256u;
    clEnqueueNDRangeKernel(queue, k_hf_bhf, 1, NULL, &g_hf_bhf, &l_hf_bhf, 0, NULL, NULL);
    cl_kernel k_vf_rvf = clCreateKernel(program, "vf_rvf", NULL);
    clSetKernelArg(k_vf_rvf, 0, sizeof(cl_mem), &d_vf_rvf_fout);
    clSetKernelArg(k_vf_rvf, 1, sizeof(cl_mem), &d_hf_rhf_fout);
    size_t g_vf_rvf = 86528u, l_vf_rvf = 256u;
    clEnqueueNDRangeKernel(queue, k_vf_rvf, 1, NULL, &g_vf_rvf, &l_vf_rvf, 0, NULL, NULL);
    cl_kernel k_vf_gvf = clCreateKernel(program, "vf_gvf", NULL);
    clSetKernelArg(k_vf_gvf, 0, sizeof(cl_mem), &d_vf_gvf_fout);
    clSetKernelArg(k_vf_gvf, 1, sizeof(cl_mem), &d_hf_ghf_fout);
    size_t g_vf_gvf = 86528u, l_vf_gvf = 256u;
    clEnqueueNDRangeKernel(queue, k_vf_gvf, 1, NULL, &g_vf_gvf, &l_vf_gvf, 0, NULL, NULL);
    cl_kernel k_vf_bvf = clCreateKernel(program, "vf_bvf", NULL);
    clSetKernelArg(k_vf_bvf, 0, sizeof(cl_mem), &d_vf_bvf_fout);
    clSetKernelArg(k_vf_bvf, 1, sizeof(cl_mem), &d_hf_bhf_fout);
    size_t g_vf_bvf = 86528u, l_vf_bvf = 256u;
    clEnqueueNDRangeKernel(queue, k_vf_bvf, 1, NULL, &g_vf_bvf, &l_vf_bvf, 0, NULL, NULL);

    clEnqueueReadBuffer(queue, d_vf_rvf_fout, CL_FALSE, 0, 345600u * sizeof(int), h_vf_rvf_fout, 0, NULL, NULL);
    clEnqueueReadBuffer(queue, d_vf_gvf_fout, CL_FALSE, 0, 345600u * sizeof(int), h_vf_gvf_fout, 0, NULL, NULL);
    clEnqueueReadBuffer(queue, d_vf_bvf_fout, CL_FALSE, 0, 345600u * sizeof(int), h_vf_bvf_fout, 0, NULL, NULL);
    clFinish(queue);
    clReleaseMemObject(d_fg_ch0);
    clReleaseMemObject(d_fg_ch1);
    clReleaseMemObject(d_fg_ch2);
    clReleaseMemObject(d_hf_rhf_fout);
    clReleaseMemObject(d_hf_ghf_fout);
    clReleaseMemObject(d_hf_bhf_fout);
    clReleaseMemObject(d_vf_rvf_fout);
    clReleaseMemObject(d_vf_gvf_fout);
    clReleaseMemObject(d_vf_bvf_fout);
    return 0;
}
